"""Bounded flight recorder with triggered debug-bundle capture.

The recorder keeps the last N spans, attempt records, and overload
events in fixed-size ring buffers (``collections.deque`` with
``maxlen``) so the steady-state cost of being always-on is one deque
append per record — no allocation growth, no I/O.  When something goes
wrong (worker crash-loop, breaker opening, backend disagreement,
fuzz finding) the owner calls
:meth:`FlightRecorder.trigger` and the recorder freezes everything it
knows into a self-contained JSON *debug bundle* — the operational
analogue of the fuzz farm's repro artifacts.

Bundles are plain JSON and can be inspected with
``python -m repro.obs show <bundle>``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "BUNDLE_KIND",
    "BUNDLE_VERSION",
    "FlightRecorder",
    "RECORDER",
    "load_bundle",
    "render_bundle",
    "write_bundle",
]

BUNDLE_KIND = "repro-debug-bundle"
BUNDLE_VERSION = 1

_RING_NAMES = ("spans", "attempts", "events")


class FlightRecorder:
    """Ring buffers for recent telemetry plus bundle capture on trigger."""

    def __init__(
        self,
        capacity: int = 256,
        *,
        cooldown_s: float = 5.0,
        max_bundles: int = 16,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.cooldown_s = float(cooldown_s)
        self.max_bundles = int(max_bundles)
        self._spans: deque = deque(maxlen=self.capacity)
        self._attempts: deque = deque(maxlen=self.capacity)
        self._events: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._counts = {"spans": 0, "attempts": 0, "events": 0}
        self._triggers = 0
        self._bundles_written = 0
        self._last_trigger: Dict[str, float] = {}
        self._bundle_paths: List[str] = []

    # -- recording (hot path) -------------------------------------------

    def record_span(self, span: Mapping[str, Any]) -> None:
        with self._lock:
            self._spans.append(dict(span))
            self._counts["spans"] += 1

    def record_attempt(self, record: Mapping[str, Any]) -> None:
        with self._lock:
            self._attempts.append(dict(record))
            self._counts["attempts"] += 1

    def record_event(self, kind: str, **data: Any) -> None:
        event = {"kind": kind, "at_unix": time.time()}
        event.update(data)
        with self._lock:
            self._events.append(event)
            self._counts["events"] += 1

    # -- inspection -----------------------------------------------------

    def rings(self) -> Dict[str, List[Dict[str, Any]]]:
        """Copies of the three rings, oldest first."""
        with self._lock:
            return {
                "spans": [dict(s) for s in self._spans],
                "attempts": [dict(a) for a in self._attempts],
                "events": [dict(e) for e in self._events],
            }

    def bundle_paths(self) -> List[str]:
        with self._lock:
            return list(self._bundle_paths)

    # Shared counter protocol (snapshot/reset_counters; diff two
    # snapshots with repro.telemetry.delta).
    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            out = {name: self._counts[name] for name in _RING_NAMES}
            out["triggers"] = self._triggers
            out["bundles_written"] = self._bundles_written
            return out

    def reset_counters(self) -> None:
        with self._lock:
            for name in _RING_NAMES:
                self._counts[name] = 0
            self._triggers = 0
            self._bundles_written = 0

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._attempts.clear()
            self._events.clear()
            self._last_trigger.clear()

    # -- bundle capture -------------------------------------------------

    def trigger(
        self,
        cause: str,
        detail: str = "",
        *,
        context: Optional[Mapping[str, Any]] = None,
        bundle_dir: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Optional[str]:
        """Capture a debug bundle for ``cause``.

        Returns the bundle path, or None when no directory was given or
        the per-cause cooldown suppressed the capture (the trigger is
        still recorded as an event either way).
        """
        wall = time.time()
        mono = now if now is not None else time.monotonic()
        with self._lock:
            self._triggers += 1
            last = self._last_trigger.get(cause)
            suppressed = last is not None and (mono - last) < self.cooldown_s
            if not suppressed:
                self._last_trigger[cause] = mono
        self.record_event("trigger", cause=cause, detail=detail,
                          suppressed=suppressed)
        if suppressed or bundle_dir is None:
            return None
        bundle = self.build_bundle(
            cause, detail, context=context, captured_unix=wall
        )
        path = write_bundle(bundle_dir, bundle)
        with self._lock:
            self._bundles_written += 1
            self._bundle_paths.append(path)
            pruned = self._bundle_paths[: -self.max_bundles]
            del self._bundle_paths[: -self.max_bundles]
        for stale in pruned:
            try:
                os.unlink(stale)
            except OSError:
                pass
        return path

    def build_bundle(
        self,
        cause: str,
        detail: str = "",
        *,
        context: Optional[Mapping[str, Any]] = None,
        captured_unix: Optional[float] = None,
    ) -> Dict[str, Any]:
        from ..telemetry.metrics import METRICS

        return {
            "kind": BUNDLE_KIND,
            "version": BUNDLE_VERSION,
            "cause": cause,
            "detail": detail,
            "captured_unix": (
                captured_unix if captured_unix is not None else time.time()
            ),
            "pid": os.getpid(),
            "recent": self.rings(),
            "metrics": METRICS.snapshot(),
            "recorder": self.snapshot(),
            "context": dict(context) if context else {},
        }


# Default process-wide recorder; engines share it unless given their own.
RECORDER = FlightRecorder()


def write_bundle(directory: str, bundle: Mapping[str, Any]) -> str:
    os.makedirs(directory, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(bundle["captured_unix"]))
    cause = str(bundle.get("cause", "unknown")).replace("/", "_")
    base = f"bundle-{stamp}-{cause}-{os.getpid()}"
    path = os.path.join(directory, base + ".json")
    serial = 1
    while os.path.exists(path):
        path = os.path.join(directory, f"{base}-{serial}.json")
        serial += 1
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(bundle, fp, indent=2, sort_keys=True, default=str)
        fp.write("\n")
    os.replace(tmp, path)
    return path


def load_bundle(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fp:
        bundle = json.load(fp)
    if bundle.get("kind") != BUNDLE_KIND:
        raise ValueError(f"{path} is not a {BUNDLE_KIND}")
    return bundle


def render_bundle(bundle: Mapping[str, Any]) -> str:
    """Human-readable one-screen summary of a debug bundle."""
    lines = []
    captured = time.strftime(
        "%Y-%m-%d %H:%M:%SZ", time.gmtime(bundle.get("captured_unix", 0))
    )
    lines.append(
        f"debug bundle · cause={bundle.get('cause')} "
        f"detail={bundle.get('detail') or '-'}"
    )
    lines.append(f"  captured {captured} by pid {bundle.get('pid')}")
    recent = bundle.get("recent", {})
    lines.append(
        "  recent: "
        + ", ".join(
            f"{len(recent.get(name, []))} {name}" for name in _RING_NAMES
        )
    )
    events = recent.get("events", [])
    if events:
        lines.append("  last events:")
        for event in events[-8:]:
            extras = {
                k: v
                for k, v in event.items()
                if k not in ("kind", "at_unix")
            }
            detail = " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
            lines.append(f"    - {event.get('kind')} {detail}".rstrip())
    attempts = recent.get("attempts", [])
    if attempts:
        bad = [
            a for a in attempts if a.get("outcome") not in ("ok", None)
        ]
        lines.append(
            f"  attempts: {len(attempts)} recent, {len(bad)} non-ok"
        )
        for a in bad[-5:]:
            lines.append(
                f"    - {a.get('outcome')} spec={a.get('spec') or a.get('builder') or '?'}"
                f" priority={a.get('priority', '?')}"
            )
    context = bundle.get("context", {})
    if context:
        lines.append("  context:")
        for key in sorted(context):
            value = context[key]
            if isinstance(value, dict):
                lines.append(f"    {key}: {json.dumps(value, sort_keys=True, default=str)[:200]}")
            else:
                lines.append(f"    {key}: {value}")
    metrics = bundle.get("metrics", {})
    lines.append(f"  metrics snapshot: {len(metrics)} series")
    return "\n".join(lines)
