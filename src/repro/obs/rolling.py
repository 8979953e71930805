"""Sliding-window latency histogram for operational observability.

The live-status layer needs "what happened over the last N
seconds" views that the cumulative :mod:`repro.telemetry.metrics`
counters cannot answer.  :class:`RollingHistogram` slices time into a
fixed number of slots of equal width; observations land in the slot
covering ``now`` and slots older than the window are pruned lazily on
the next touch.  Everything is O(slots) at worst and allocation-free
on the hot path, so the engine's dispatcher thread can afford one
observation per completed task.

All timestamps are caller-supplied (monotonic seconds by convention)
so tests can drive the windows with a fake clock.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["LOG_BOUNDS", "RollingHistogram"]

# Log-spaced latency bucket upper bounds, in seconds: 100us .. ~104s,
# doubling each step.  21 buckets cover every latency this service can
# produce while keeping quantile resolution within a factor of two.
LOG_BOUNDS: Tuple[float, ...] = tuple(1e-4 * 2.0**i for i in range(21))


class _Slots:
    """Slot bookkeeping: maps absolute time onto slot indices."""

    def __init__(self, window_s: float, slots: int) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.window_s = float(window_s)
        self.slots = int(slots)
        self.width = self.window_s / self.slots

    def index(self, now: float) -> int:
        return int(now / self.width)

    def live(self, now: float) -> range:
        """Absolute slot indices still inside the window at ``now``."""
        current = self.index(now)
        return range(current - self.slots + 1, current + 1)


class RollingHistogram:
    """Log-bucketed value distribution inside a sliding window.

    Each live slot holds its own bucket array; quantiles merge the
    live slots and walk the cumulative counts, returning the upper
    edge of the bucket containing the requested rank (an upper bound
    accurate to one doubling).
    """

    __slots__ = ("_spec", "bounds", "_slots", "_lock")

    def __init__(
        self,
        window_s: float = 60.0,
        slots: int = 12,
        bounds: Sequence[float] = LOG_BOUNDS,
    ) -> None:
        self._spec = _Slots(window_s, slots)
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("bounds must be sorted ascending")
        # abs slot index -> [per-bucket counts..., overflow]
        self._slots: Dict[int, List[int]] = {}
        self._lock = threading.Lock()

    @property
    def window_s(self) -> float:
        return self._spec.window_s

    def observe(self, now: float, value: float) -> None:
        idx = self._spec.index(now)
        bucket = self._bucket_for(value)
        with self._lock:
            counts = self._slots.get(idx)
            if counts is None:
                counts = [0] * (len(self.bounds) + 1)
                self._slots[idx] = counts
                self._prune(idx)
            counts[bucket] += 1

    def _bucket_for(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _merged(self, now: float) -> List[int]:
        live = self._spec.live(now)
        merged = [0] * (len(self.bounds) + 1)
        with self._lock:
            self._prune(live.stop - 1)
            for idx, counts in self._slots.items():
                if idx in live:
                    for i, c in enumerate(counts):
                        merged[i] += c
        return merged

    def count(self, now: float) -> int:
        return sum(self._merged(now))

    def quantile(self, now: float, q: float) -> Optional[float]:
        """Upper-bound estimate of the ``q`` quantile, or None if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        merged = self._merged(now)
        total = sum(merged)
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        for i, c in enumerate(merged):
            cumulative += c
            if cumulative >= rank and c:
                if i < len(self.bounds):
                    return self.bounds[i]
                # Overflow bucket: report the largest finite bound.
                return self.bounds[-1] if self.bounds else float("inf")
        return self.bounds[-1] if self.bounds else float("inf")

    def summary(self, now: float) -> Dict[str, float]:
        """p50/p95/p99 (in milliseconds) plus sample count."""
        out: Dict[str, float] = {"count": float(self.count(now))}
        for label, q in (("p50_ms", 0.5), ("p95_ms", 0.95), ("p99_ms", 0.99)):
            value = self.quantile(now, q)
            out[label] = round(value * 1000.0, 3) if value is not None else 0.0
        return out

    def _prune(self, current: int) -> None:
        floor = current - self._spec.slots + 1
        if len(self._slots) > 2 * self._spec.slots:
            for idx in [i for i in self._slots if i < floor]:
                del self._slots[idx]
