"""Admission control: the decision half of overload protection.

The dispatcher in :mod:`repro.service.engine` holds the *mechanism*
half (actually shedding queued tasks).  Splitting them keeps the
policy deterministic and unit-testable with an injected clock — no
subprocesses needed.

:class:`AdmissionController` is a bounded counting semaphore with
per-priority headroom.  ``interactive`` may fill the whole queue;
``batch`` stops being admitted at ``shed_threshold`` of the depth;
``fuzz`` stops one shed-band earlier still.  The staggered limits
mean low-priority traffic experiences backpressure *before* the queue
is full, so there is always reserved headroom for interactive work —
the classic priority-admission design from overload-tolerant RPC
systems.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from ..errors import ZenQueueFull

__all__ = [
    "PRIORITIES",
    "PRIORITY_RANK",
    "AdmissionController",
]

#: Priority classes, highest first.  Rank 0 is never shed and never
#: refused admission while any slot remains.
PRIORITIES: Tuple[str, ...] = ("interactive", "batch", "fuzz")
PRIORITY_RANK: Dict[str, int] = {p: i for i, p in enumerate(PRIORITIES)}


class AdmissionController:
    """Bounded admission with per-priority headroom.

    Counts every task that has been admitted but not yet finished
    (queued *or* in flight), so the bound covers the engine's whole
    working set, not just the pending list.  ``max_depth=None`` means
    unbounded (the pre-overload-protection behaviour).

    Thread-safe: admission happens on caller threads, release on the
    dispatcher thread.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        shed_threshold: float = 0.9,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth!r}")
        if not 0.0 < shed_threshold <= 1.0:
            raise ValueError(
                f"shed_threshold must be in (0, 1], got {shed_threshold!r}"
            )
        self.max_depth = max_depth
        self.shed_threshold = shed_threshold
        self._clock = clock
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._counts: Dict[str, int] = {p: 0 for p in PRIORITIES}
        self.admitted: Dict[str, int] = {p: 0 for p in PRIORITIES}
        self.rejected: Dict[str, int] = {p: 0 for p in PRIORITIES}

    # -- limits ----------------------------------------------------------

    def limit_for(self, priority: str) -> Optional[int]:
        """Admit limit for one priority class (None = unbounded).

        ``interactive`` gets the full depth; ``batch`` is cut off at
        ``shed_threshold`` of it; ``fuzz`` one shed-band below that
        (``2*shed_threshold - 1``), floored at one slot so a quiet
        engine still serves fuzz traffic.
        """
        if self.max_depth is None:
            return None
        if priority == "interactive":
            return self.max_depth
        if priority == "batch":
            fraction = self.shed_threshold
        else:
            fraction = max(0.0, 2.0 * self.shed_threshold - 1.0)
        return max(1, int(self.max_depth * fraction))

    # -- state -----------------------------------------------------------

    def depth(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def utilization(self) -> float:
        """Fraction of the admission bound in use (0.0 when unbounded)."""
        if self.max_depth is None:
            return 0.0
        with self._lock:
            return sum(self._counts.values()) / self.max_depth

    def detail(self) -> Dict[str, object]:
        """Rich nested view for ``overload_stats()`` and status pages."""
        with self._lock:
            depth = sum(self._counts.values())
            return {
                "max_depth": self.max_depth,
                "depth": depth,
                "utilization": (
                    depth / self.max_depth if self.max_depth else 0.0
                ),
                "in_flight": dict(self._counts),
                "admitted": dict(self.admitted),
                "rejected": dict(self.rejected),
                "limits": {p: self.limit_for(p) for p in PRIORITIES},
            }

    # -- admission -------------------------------------------------------

    def _admit_locked(self, priority: str) -> bool:
        limit = self.limit_for(priority)
        if limit is not None and sum(self._counts.values()) >= limit:
            return False
        self._counts[priority] += 1
        self.admitted[priority] += 1
        return True

    def try_admit(self, priority: str) -> bool:
        """Non-blocking admit; False means the class is at its limit."""
        with self._lock:
            ok = self._admit_locked(priority)
            if not ok:
                self.rejected[priority] += 1
            return ok

    def admit(
        self,
        priority: str,
        wait: bool = False,
        timeout_s: Optional[float] = None,
        abort: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Admit one task or raise :class:`ZenQueueFull`.

        ``wait=True`` blocks until a slot frees (optionally bounded by
        ``timeout_s``); ``abort`` is polled on every wakeup so a
        closing engine can unblock waiters.
        """
        deadline = (
            None if timeout_s is None else self._clock() + timeout_s
        )
        with self._cond:
            while True:
                if self._admit_locked(priority):
                    return
                timed_out = (
                    deadline is not None and self._clock() >= deadline
                )
                aborted = abort is not None and abort()
                if not wait or timed_out or aborted:
                    self.rejected[priority] += 1
                    limit = self.limit_for(priority)
                    depth = sum(self._counts.values())
                    raise ZenQueueFull(
                        f"admission queue full for priority "
                        f"{priority!r} (depth {depth}, limit {limit}"
                        + (", engine closing" if aborted else "")
                        + (
                            f", waited {timeout_s}s" if timed_out else ""
                        )
                        + ")",
                        priority=priority,
                        depth=depth,
                        limit=limit,
                    )
                # Bounded waits double as an abort/deadline poll: a
                # release() notify normally wakes us immediately.
                remaining = 0.05
                if deadline is not None:
                    remaining = min(
                        remaining, max(0.0, deadline - self._clock())
                    )
                self._cond.wait(timeout=remaining)

    def release(self, priority: str) -> None:
        """Return one slot (called exactly once per finished task)."""
        with self._cond:
            if self._counts.get(priority, 0) > 0:
                self._counts[priority] -= 1
            self._cond.notify_all()
