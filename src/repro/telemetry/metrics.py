"""Metrics registry: counters, gauges, histograms, and the
``snapshot()/delta()`` counter protocol.

The engine already keeps numbers in several silos — ``BddStats`` op
counters, the SAT :class:`~repro.sat.solver.Solver` statistics dict,
:class:`~repro.core.budget.BudgetMeter` consumption — each with its own
field names and reset spelling.  This module defines the one protocol
they all now speak:

* ``snapshot()`` returns a *flat dict of numbers* (no nested
  structure, no non-numeric values), cheap enough to call per query;
* :func:`delta` diffs two snapshots key-by-key, so "what did this
  query consume?" is ``delta(before, after)`` regardless of which
  subsystem produced the numbers;
* ``reset_counters()`` is the canonical reset spelling everywhere
  (legacy names remain as aliases).

:class:`MetricsRegistry` aggregates process-wide series on top of the
same representation: registry ``snapshot()`` output is itself a flat
numeric dict (histograms flatten to per-bucket keys), so the one
:func:`delta` works across all of it.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "delta",
    "numeric_snapshot",
]

Number = float


def delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Number]:
    """Key-wise numeric difference ``after - before``.

    Keys present on only one side are treated as 0 on the other, so a
    counter born mid-window still shows its full increment.  Non-numeric
    values (bools excluded too) are ignored.
    """
    out: Dict[str, Number] = {}
    keys = set(before) | set(after)
    for key in keys:
        b = before.get(key, 0)
        a = after.get(key, 0)
        if isinstance(b, bool) or isinstance(a, bool):
            continue
        if isinstance(b, (int, float)) and isinstance(a, (int, float)):
            out[key] = a - b
    return out


def numeric_snapshot(source: Any) -> Dict[str, Number]:
    """Best-effort flat numeric snapshot of an arbitrary stats carrier.

    Prefers the ``snapshot()`` protocol; falls back to ``stats()`` /
    ``statistics`` / ``as_dict()``; filters to numeric values either
    way.  Returns ``{}`` for objects exposing none of these.
    """
    raw: Any = None
    for attr in ("snapshot", "stats", "as_dict"):
        method = getattr(source, attr, None)
        if callable(method):
            raw = method()
            break
    if raw is None:
        raw = getattr(source, "statistics", None)
    if not isinstance(raw, dict):
        return {}
    return {
        key: value
        for key, value in raw.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


class Counter:
    """Monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def snapshot(self) -> Dict[str, Number]:
        return {self.name: self._value}

    def reset_counters(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """Point-in-time value that may go up or down (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: Number) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def snapshot(self) -> Dict[str, Number]:
        return {self.name: self._value}

    def reset_counters(self) -> None:
        with self._lock:
            self._value = 0.0


#: Default histogram boundaries, in seconds: latency-shaped, spanning
#: 100µs kernels to multi-minute whole-query wall times.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class Histogram:
    """Fixed-boundary histogram (thread-safe).

    ``bounds`` are the inclusive upper edges of each bucket; one
    overflow bucket catches everything above the last edge.  Snapshot
    keys flatten to ``<name>.le_<bound>`` plus ``.count`` and ``.sum``
    so histogram state rides the same flat-dict protocol as counters.
    """

    __slots__ = ("name", "bounds", "_buckets", "_count", "_sum", "_lock")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._buckets = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._buckets[idx] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> Number:
        return self._sum

    def bucket_counts(self) -> List[int]:
        with self._lock:
            return list(self._buckets)

    def snapshot(self) -> Dict[str, Number]:
        with self._lock:
            out: Dict[str, Number] = {}
            for bound, count in zip(self.bounds, self._buckets):
                out[f"{self.name}.le_{bound:g}"] = count
            out[f"{self.name}.le_inf"] = self._buckets[-1]
            out[f"{self.name}.count"] = self._count
            out[f"{self.name}.sum"] = self._sum
        return out

    def reset_counters(self) -> None:
        with self._lock:
            self._buckets = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0


class MetricsRegistry:
    """Named collection of counters/gauges/histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent
    by name, so instrumentation points need no registration step);
    ``snapshot()`` flattens the whole registry to one numeric dict
    compatible with :func:`delta`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, factory, kind) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            created = factory()
            self._metrics[name] = created
            return created

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, bounds), Histogram
        )

    def get(self, name: str) -> Optional[Any]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Number]:
        with self._lock:
            metrics = list(self._metrics.values())
        out: Dict[str, Number] = {}
        for metric in metrics:
            out.update(metric.snapshot())
        return out

    def reset_counters(self) -> None:
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset_counters()

    def absorb(self, prefix: str, source: Any) -> Dict[str, Number]:
        """Fold one subsystem's counter snapshot into gauges.

        ``source`` is anything speaking the snapshot protocol (or one
        of its legacy spellings — see :func:`numeric_snapshot`); each
        value lands in a gauge named ``<prefix>.<key>``.  Returns the
        flat snapshot that was absorbed.
        """
        snap = numeric_snapshot(source)
        for key, value in snap.items():
            self.gauge(f"{prefix}.{key}").set(value)
        return snap


#: Process-wide default registry.
METRICS = MetricsRegistry()
