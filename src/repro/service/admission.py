"""Admission control and brownout hysteresis policy.

This module holds the *decision* half of the engine's overload
protection; the dispatcher in :mod:`repro.service.engine` holds the
*mechanism* half (actually shedding queued tasks, shrinking
ladders).  Splitting them keeps every policy deterministic
and unit-testable with an injected clock — no subprocesses needed.

Two cooperating pieces:

* :class:`AdmissionController` — a bounded counting semaphore with
  per-priority headroom.  ``interactive`` may fill the whole queue;
  ``batch`` stops being admitted at ``shed_threshold`` of the depth;
  ``fuzz`` stops one shed-band earlier still.  The staggered limits
  mean low-priority traffic experiences backpressure *before* the
  queue is full, so there is always reserved headroom for interactive
  work — the classic priority-admission design from overload-tolerant
  RPC systems.

* :class:`BrownoutController` — a two-state (``normal``/``brownout``)
  hysteresis machine.  Entry is edge-triggered by stress (utilization
  at/above ``enter_utilization``, or any shed event); exit requires
  utilization at/below ``exit_utilization`` *continuously* for a full
  ``window_s`` since the last stress signal, so a sawtoothing queue
  cannot flap the mode.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ZenQueueFull

__all__ = [
    "PRIORITIES",
    "PRIORITY_RANK",
    "AdmissionController",
    "BrownoutController",
    "NORMAL",
    "BROWNOUT",
]

#: Priority classes, highest first.  Rank 0 is never shed and never
#: refused admission while any slot remains.
PRIORITIES: Tuple[str, ...] = ("interactive", "batch", "fuzz")
PRIORITY_RANK: Dict[str, int] = {p: i for i, p in enumerate(PRIORITIES)}

NORMAL = "normal"
BROWNOUT = "brownout"


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

    # Shared counter protocol (snapshot/delta/reset_counters) — flat
    # numeric view so MetricsRegistry.absorb() and the flight recorder
    # can fold admission state in with every other counter source.
    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            out: Dict[str, float] = {
                "depth": float(sum(self._counts.values())),
            }
            for priority in PRIORITIES:
                out[f"in_flight.{priority}"] = float(
                    self._counts[priority]
                )
                out[f"admitted.{priority}"] = float(
                    self.admitted[priority]
                )
                out[f"rejected.{priority}"] = float(
                    self.rejected[priority]
                )
            if self.max_depth:
                out["utilization"] = out["depth"] / self.max_depth
            else:
                out["utilization"] = 0.0
            return out

    def delta(
        self, before: Dict[str, float], after: Dict[str, float]
    ) -> Dict[str, float]:
        return {
            key: after.get(key, 0.0) - before.get(key, 0.0)
            for key in set(before) | set(after)
        }

    def reset_counters(self) -> None:
        with self._lock:
            for priority in PRIORITIES:
                self.admitted[priority] = 0
                self.rejected[priority] = 0

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


class BrownoutController:
    """Hysteretic normal/brownout mode machine.

    ``observe(utilization, sheds)`` is called from the dispatcher loop
    (and opportunistically from stat readers); it returns the current
    mode.  Stress — utilization at/above ``enter_utilization`` or a
    positive shed count — flips the mode to brownout immediately and
    re-arms the recovery window.  Recovery back to normal requires
    utilization at/below ``exit_utilization`` and a full ``window_s``
    of continuous calm since the last stress signal.
    """

    def __init__(
        self,
        enter_utilization: float = 0.75,
        exit_utilization: float = 0.5,
        window_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 0.0 < enter_utilization <= 1.0:
            raise ValueError(
                "enter_utilization must be in (0, 1], got "
                f"{enter_utilization!r}"
            )
        if not 0.0 <= exit_utilization <= enter_utilization:
            raise ValueError(
                "exit_utilization must be in [0, enter_utilization], "
                f"got {exit_utilization!r}"
            )
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s!r}")
        self.enter_utilization = enter_utilization
        self.exit_utilization = exit_utilization
        self.window_s = window_s
        self._clock = clock
        self._lock = threading.Lock()
        self._mode = NORMAL
        self._last_stress = -float("inf")
        self._entered = 0
        self._exited = 0
        #: (at, from_mode, to_mode, reason) transition log.
        self.transitions: List[Tuple[float, str, str, str]] = []

    @property
    def mode(self) -> str:
        with self._lock:
            return self._mode

    def observe(self, utilization: float, sheds: int = 0) -> str:
        """Feed one stress sample; returns the (possibly new) mode."""
        now = self._clock()
        with self._lock:
            stressed = sheds > 0 or utilization >= self.enter_utilization
            if stressed:
                self._last_stress = now
                if self._mode == NORMAL:
                    reason = (
                        f"shed x{sheds}"
                        if sheds > 0
                        else f"utilization {utilization:.2f}"
                    )
                    self._mode = BROWNOUT
                    self._entered += 1
                    self.transitions.append(
                        (now, NORMAL, BROWNOUT, reason)
                    )
            elif (
                self._mode == BROWNOUT
                and utilization <= self.exit_utilization
                and now - self._last_stress >= self.window_s
            ):
                self._mode = NORMAL
                self._exited += 1
                self.transitions.append(
                    (
                        now,
                        BROWNOUT,
                        NORMAL,
                        f"calm {now - self._last_stress:.2f}s",
                    )
                )
            return self._mode

    def detail(self) -> Dict[str, object]:
        """Rich nested view for ``overload_stats()`` and status pages."""
        with self._lock:
            return {
                "mode": self._mode,
                "enter_utilization": self.enter_utilization,
                "exit_utilization": self.exit_utilization,
                "window_s": self.window_s,
                "transitions": [
                    {"at": at, "from": frm, "to": to, "reason": reason}
                    for at, frm, to, reason in self.transitions
                ],
            }

    # Shared counter protocol.
    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {
                "browned_out": float(self._mode == BROWNOUT),
                "entered": float(self._entered),
                "exited": float(self._exited),
            }

    def delta(
        self, before: Dict[str, float], after: Dict[str, float]
    ) -> Dict[str, float]:
        return {
            key: after.get(key, 0.0) - before.get(key, 0.0)
            for key in set(before) | set(after)
        }

    def reset_counters(self) -> None:
        with self._lock:
            self._entered = 0
            self._exited = 0

