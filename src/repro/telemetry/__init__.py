"""repro.telemetry — tracing, metrics, and query profiling.

The observability substrate for the whole stack: hierarchical trace
spans (:mod:`~repro.telemetry.spans`), a metrics registry plus the
``snapshot()/delta()`` counter protocol (:mod:`~repro.telemetry.metrics`),
exporters to JSON-lines and Chrome/Perfetto trace format
(:mod:`~repro.telemetry.export`), and the per-query
:class:`~repro.telemetry.profile.QueryProfile` summaries attached to
``QueryResult`` and ``ServiceResult``.

Quick profile of a verification call::

    from repro import telemetry

    telemetry.enable_tracing()
    fn.verify(lambda out: out != Int32(0))
    telemetry.write_chrome_trace("trace.json")   # open in Perfetto
    telemetry.disable_tracing()
"""

from .spans import (
    Span,
    Tracer,
    TRACER,
    span,
    enable_tracing,
    disable_tracing,
    tracing_enabled,
)
from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    METRICS,
    delta,
)
from .export import (
    span_events,
    write_jsonl,
    write_chrome_trace,
    chrome_trace_events,
    load_chrome_trace,
)
from .profile import QueryProfile, profile_from_spans

__all__ = [
    # spans
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    # metrics
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "METRICS",
    "delta",
    # export
    "span_events",
    "write_jsonl",
    "write_chrome_trace",
    "chrome_trace_events",
    "load_chrome_trace",
    # profile
    "QueryProfile",
    "profile_from_spans",
]
