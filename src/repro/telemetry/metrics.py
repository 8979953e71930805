"""Metrics registry: counters, gauges, and the ``snapshot()/delta()``
counter protocol.

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

:class:`MetricsRegistry` holds the process-wide series that have no
other home (compose and model-checking counts); its ``snapshot()`` is
itself a flat numeric dict, so the one :func:`delta` works across all
of it.  An engine counter lives in its engine, read through that
engine's own stats call, never mirrored here.  The one histogram is
:class:`repro.obs.rolling.RollingHistogram`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "METRICS",
    "delta",
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


class MetricsRegistry:
    """Named collection of counters and gauges.

    ``counter``/``gauge`` are get-or-create (idempotent by name, so
    instrumentation points need no registration step);
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


#: Process-wide default registry.
METRICS = MetricsRegistry()
