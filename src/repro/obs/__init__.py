"""repro.obs — operational observability for the query service.

Builds on :mod:`repro.telemetry` (raw spans/metrics) with the
*operational* layer: an always-on bounded flight recorder that dumps
self-contained JSON debug bundles on trigger, a live
:class:`EngineStatus` snapshot readable from another process, rolling
and log-bucketed latency windows.

Quickstart::

    engine = QueryEngine(
        pool_size=4,
        bundle_dir="debug-bundles",
        status_file="engine-status.json",
    )
    # ... elsewhere:  python -m repro.obs status engine-status.json
"""

from .recorder import (
    BUNDLE_KIND,
    BUNDLE_VERSION,
    RECORDER,
    FlightRecorder,
    load_bundle,
    render_bundle,
    write_bundle,
)
from .rolling import LOG_BOUNDS, RollingHistogram
from .status import (
    DEFAULT_STATUS_FILE,
    EngineStatus,
    read_status_file,
    render_status,
    write_status_file,
)

__all__ = [
    "BUNDLE_KIND",
    "BUNDLE_VERSION",
    "DEFAULT_STATUS_FILE",
    "EngineStatus",
    "FlightRecorder",
    "LOG_BOUNDS",
    "RECORDER",
    "RollingHistogram",
    "load_bundle",
    "read_status_file",
    "render_bundle",
    "render_status",
    "write_bundle",
    "write_status_file",
]
