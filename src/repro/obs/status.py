"""Live engine status snapshots, cross-process status files, rendering.

:class:`EngineStatus` is a plain-data snapshot of everything an
operator wants at a glance: pool utilization, per-priority queue
depths, rolling latency quantiles, cache hit rate, breaker state,
and counter totals.  The engine produces one via
``QueryEngine.status()`` and (when configured with ``status_file=``)
writes it atomically on a cadence so
``python -m repro.obs status`` in *another process* can read it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping

__all__ = [
    "DEFAULT_STATUS_FILE",
    "EngineStatus",
    "read_status_file",
    "render_status",
    "write_status_file",
]

DEFAULT_STATUS_FILE = "engine-status.json"


@dataclass
class EngineStatus:
    """One self-contained snapshot of a running engine."""

    generated_unix: float
    pid: int
    pool_size: int
    pool_busy: int
    workers: List[int] = field(default_factory=list)
    queue: Dict[str, Any] = field(default_factory=dict)
    latency_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cache: Dict[str, Any] = field(default_factory=dict)
    breakers: Dict[str, str] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    compose: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineStatus":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def write_status_file(path: str, status: EngineStatus) -> None:
    """Atomically replace ``path`` with the serialized snapshot."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(status.as_dict(), fp, sort_keys=True, default=str)
        fp.write("\n")
    os.replace(tmp, path)


def read_status_file(path: str) -> EngineStatus:
    with open(path, "r", encoding="utf-8") as fp:
        return EngineStatus.from_dict(json.load(fp))


def _bar(fraction: float, width: int = 20) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_status(status: EngineStatus) -> str:
    """Human-readable terminal rendering of a snapshot."""
    now = time.time()
    age = max(0.0, now - status.generated_unix)
    lines = []
    lines.append(f"engine pid {status.pid} · snapshot {age:.1f}s old")
    busy_frac = (
        status.pool_busy / status.pool_size if status.pool_size else 0.0
    )
    lines.append(
        f"  pool  [{_bar(busy_frac)}] {status.pool_busy}/{status.pool_size}"
        f" busy · workers {status.workers}"
    )
    queue = status.queue or {}
    util = float(queue.get("utilization", 0.0))
    lines.append(
        f"  queue [{_bar(util)}] depth {queue.get('depth', 0)}"
        f"/{queue.get('max_depth', '?')} (util {util:.2f})"
    )
    in_flight = queue.get("in_flight") or {}
    limits = queue.get("limits") or {}
    for priority in sorted(set(in_flight) | set(limits)):
        lines.append(
            f"    {priority:<12} in-flight {in_flight.get(priority, 0)}"
            f" / limit {limits.get(priority, '?')}"
        )
    if status.latency_ms:
        lines.append("  latency (rolling window):")
        for priority in sorted(status.latency_ms):
            row = status.latency_ms[priority]
            lines.append(
                f"    {priority:<12} p50 {row.get('p50_ms', 0):>8.2f}ms"
                f"  p95 {row.get('p95_ms', 0):>8.2f}ms"
                f"  p99 {row.get('p99_ms', 0):>8.2f}ms"
                f"  (n={int(row.get('count', 0))})"
            )
    cache = status.cache or {}
    if cache:
        lines.append(
            f"  cache hit-rate {float(cache.get('hit_rate', 0.0)):.3f}"
            f" (hits {cache.get('hits', 0)}, misses {cache.get('misses', 0)},"
            f" evictions {cache.get('evictions', 0)})"
        )
    if status.breakers:
        rendered = ", ".join(
            f"{name}={state}" for name, state in sorted(status.breakers.items())
        )
        lines.append(f"  breakers: {rendered}")
    compose = status.compose or {}
    if compose:
        lines.append(
            f"  compose: queries {int(compose.get('queries', 0))}"
            f" · shards {int(compose.get('shards_dispatched', 0))}"
        )
    return "\n".join(lines)
