"""Trace exporters: JSON-lines event log and Chrome ``trace_event``.

Two consumers, two formats:

* :func:`write_jsonl` — one JSON object per line per span (pre-order),
  greppable and streamable; the natural format for log pipelines.
* :func:`write_chrome_trace` — the Chrome/Perfetto ``trace_event``
  JSON object format.  Load the file at https://ui.perfetto.dev (or
  ``chrome://tracing``) to see the merged timeline; spans from worker
  subprocesses appear as separate process tracks because each span
  carries the pid it was measured in.

Both accept :class:`~repro.telemetry.spans.Span` trees or the plain
dicts produced by ``Span.to_dict()`` (what crosses the service's
result pipe), so a trace can be exported without rehydrating spans.
:func:`load_chrome_trace` reads the Chrome format back for round-trip
tests and programmatic inspection.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, IO, Iterable, Iterator, List, Union

from .spans import Span, Tracer, TRACER

__all__ = [
    "span_events",
    "write_jsonl",
    "write_chrome_trace",
    "chrome_trace_events",
    "load_chrome_trace",
]

SpanLike = Union[Span, Dict[str, Any]]


def _as_dict(root: SpanLike) -> Dict[str, Any]:
    if isinstance(root, Span):
        return root.to_dict()
    return root


def _walk(node: Dict[str, Any], depth: int = 0) -> Iterator[Dict[str, Any]]:
    yield dict(node, depth=depth)
    for child in node.get("children", ()):
        yield from _walk(child, depth + 1)


def span_events(roots: Iterable[SpanLike]) -> Iterator[Dict[str, Any]]:
    """Flatten span trees into per-span event dicts, pre-order.

    Each event keeps name/start/dur/pid/tid/attrs and gains a
    ``depth`` field; ``children`` are dropped (structure is implied by
    order + depth, and explicit in the Chrome export's nesting).
    """
    for root in roots:
        for node in _walk(_as_dict(root)):
            node.pop("children", None)
            yield node


# Serializes concurrent write_jsonl calls within this process.  A
# buffered text stream's write() is not atomic once the payload spills
# the buffer, so without this two threads sharing one log stream can
# interleave mid-line or even lose a flushed block outright.
_JSONL_LOCK = threading.Lock()


def write_jsonl(roots: Iterable[SpanLike], fp: IO[str]) -> int:
    """Write one JSON line per span; returns the number of lines.

    Serialization happens outside the lock; the stream write is one
    locked call, so concurrent writers sharing one stream (pool
    workers appending to a common log) interleave at block granularity
    and every line stays parseable.
    """
    lines = [
        json.dumps(event, sort_keys=True, default=str)
        for event in span_events(roots)
    ]
    if lines:
        with _JSONL_LOCK:
            fp.write("\n".join(lines) + "\n")
    return len(lines)


def chrome_trace_events(roots: Iterable[SpanLike]) -> List[Dict[str, Any]]:
    """Build the Chrome ``traceEvents`` list for the given span trees.

    Emits one complete ("X") event per span with microsecond ``ts``
    relative to the earliest span start (Perfetto is happiest with
    small timestamps), plus one metadata ("M") ``process_name`` event
    per distinct pid so worker tracks are labeled.
    """
    flat = list(span_events(roots))
    if not flat:
        return []
    origin = min(event["start"] for event in flat)
    pids = sorted({int(event["pid"]) for event in flat})
    events: List[Dict[str, Any]] = []
    # The exporting process is the parent/coordinator when it traced
    # anything; otherwise fall back to the smallest pid (fork order,
    # unless pids wrapped).  Label the rest as workers.
    parent_pid = os.getpid() if os.getpid() in pids else pids[0]
    for pid in pids:
        name = "parent" if pid == parent_pid else f"worker-{pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    for event in flat:
        events.append(
            {
                "name": event["name"],
                "ph": "X",
                "ts": (event["start"] - origin) * 1e6,
                "dur": event["dur"] * 1e6,
                "pid": int(event["pid"]),
                "tid": int(event["tid"]),
                "args": dict(event.get("attrs") or {}),
            }
        )
    return events


def write_chrome_trace(
    path: str,
    roots: Iterable[SpanLike] = None,
    tracer: Tracer = None,
) -> int:
    """Write a Perfetto-loadable trace file; returns the span count.

    With no ``roots``, exports the finished roots of ``tracer``
    (default: the process-wide :data:`TRACER`).
    """
    if roots is None:
        roots = (tracer or TRACER).finished_roots()
    events = chrome_trace_events(roots)
    with open(path, "w") as fp:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fp)
    return sum(1 for event in events if event.get("ph") == "X")


def load_chrome_trace(path: str) -> List[Dict[str, Any]]:
    """Read a Chrome trace file back; returns the "X" span events."""
    with open(path) as fp:
        data = json.load(fp)
    events = data["traceEvents"] if isinstance(data, dict) else data
    return [event for event in events if event.get("ph") == "X"]
