"""Resource governance for solver queries: budgets and fallbacks.

The paper's pitch is that one model compiles to *multiple* solver
backends; this module makes those backends safe to run against
pathological inputs.  A :class:`Budget` bounds a query along four
axes — wall clock, SAT conflicts, BDD node allocations, and model
count — and is enforced by cooperative checkpoints inside the CDCL
search loop and the BDD kernels.  Exhaustion raises
:class:`~repro.errors.ZenBudgetExceeded` carrying partial statistics,
and :func:`solve_with_fallback` turns that structured failure into a
portfolio: try the preferred backend, fall back to the other backend
or a coarser list-length bound, and report which path answered.

Design notes
------------
* A :class:`Budget` is immutable configuration; :meth:`Budget.start`
  stamps the wall clock and returns a mutable :class:`BudgetMeter`
  that the engines charge against.  One meter spans one attempt; the
  fallback runner starts a fresh meter per rung so the deadline is
  per-attempt (total wall time is bounded by rungs x deadline).
* Engines never import this module (avoiding an import cycle through
  the package roots); they duck-type against the meter's ``tick`` /
  ``on_conflict`` / ``on_model`` methods.  Checkpoints are amortized:
  the BDD kernels tick every 1024 work-stack iterations, the SAT
  solver on every conflict and every 256 decisions, so a tripped
  deadline surfaces well within 2x the configured value.
* Aborting is safe by construction: the SAT solver unwinds through
  the ``finally: self._cancel_until(0)`` in ``solve`` and stays
  usable; BDD kernels only publish *completed* results to their
  caches, so an abort mid-kernel leaves the manager consistent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ZenBudgetExceeded, ZenTypeError
from ..telemetry.profile import QueryProfile
from ..telemetry.spans import TRACER

__all__ = [
    "Budget",
    "BudgetMeter",
    "QueryResult",
    "RungFailure",
    "start_meter",
    "metered",
    "solve_with_fallback",
]


@dataclass(frozen=True)
class Budget:
    """Resource limits for one solver query (immutable configuration).

    Any subset of the limits may be set; ``None`` means unlimited.

    * ``deadline_s``     — wall-clock seconds per attempt;
    * ``max_conflicts``  — CDCL conflicts (SAT backend);
    * ``max_bdd_nodes``  — cumulative BDD node allocations (the
      manager's unique table is append-only, so this caps total
      allocation, the quantity that actually exhausts memory);
    * ``max_models``     — models produced by enumeration queries.
    """

    deadline_s: Optional[float] = None
    max_conflicts: Optional[int] = None
    max_bdd_nodes: Optional[int] = None
    max_models: Optional[int] = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is None:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ZenTypeError(f"Budget.{name} must be a number, got {value!r}")
            if value < 0:
                raise ZenTypeError(f"Budget.{name} must be non-negative, got {value!r}")

    def is_unlimited(self) -> bool:
        """True when no limit is configured."""
        return not self.to_dict()

    def to_dict(self) -> Dict[str, Any]:
        """The plain-JSON form: the limits that are set, by field name."""
        return {k: v for k, v in vars(self).items() if v is not None}

    @classmethod
    def from_dict(
        cls, data: Optional[Mapping[str, Any]]
    ) -> Optional["Budget"]:
        """Inverse of :meth:`to_dict`; ``None``/empty means no budget.

        An unknown key raises: a misspelt limit must not silently mean
        "unlimited".
        """
        if not data:
            return None
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ZenTypeError(
                f"unknown Budget field(s) {unknown}; expected a subset of "
                f"{names}"
            )
        return cls(**data)

    def start(self, clock: Callable[[], float] = time.monotonic) -> "BudgetMeter":
        """Stamp the clock and return a fresh meter for one attempt."""
        return BudgetMeter(self, clock=clock)


class BudgetMeter:
    """Mutable per-attempt state charged against a :class:`Budget`.

    Engines call the cheap hooks (:meth:`on_conflict`, :meth:`tick`,
    :meth:`on_model`) from their inner loops; each hook raises
    :class:`ZenBudgetExceeded` the moment its limit trips.
    """

    __slots__ = (
        "budget",
        "_clock",
        "_started",
        "_deadline_at",
        "conflicts",
        "models",
        "bdd_nodes",
        "_decision_ticks",
    )

    def __init__(self, budget: Budget, clock: Callable[[], float] = time.monotonic):
        if not isinstance(budget, Budget):
            raise ZenTypeError(f"expected a Budget, got {budget!r}")
        self.budget = budget
        self._clock = clock
        self._started = clock()
        self._deadline_at = (
            None
            if budget.deadline_s is None
            else self._started + budget.deadline_s
        )
        self.conflicts = 0
        self.models = 0
        self.bdd_nodes = 0
        self._decision_ticks = 0

    # -- queries ---------------------------------------------------------

    def elapsed(self) -> float:
        """Wall-clock seconds since the meter was started."""
        return self._clock() - self._started

    def stats(self) -> Dict[str, Any]:
        """Partial statistics snapshot (attached to exceptions)."""
        return {
            "elapsed_s": round(self.elapsed(), 6),
            "conflicts": self.conflicts,
            "bdd_nodes": self.bdd_nodes,
            "models": self.models,
        }

    def _exceeded(self, reason: str) -> None:
        raise ZenBudgetExceeded(
            f"query budget exceeded ({reason}): {self.stats()}",
            reason=reason,
            budget=self.budget,
            stats=self.stats(),
        )

    def snapshot(self) -> Dict[str, Any]:
        """Flat numeric counter snapshot (shared counter protocol)."""
        return self.stats()

    def reset_counters(self) -> None:
        """Zero the consumption counters (the clock keeps running)."""
        self.conflicts = 0
        self.models = 0
        self.bdd_nodes = 0
        self._decision_ticks = 0

    def check_deadline(self) -> None:
        """Raise if the wall-clock deadline has passed."""
        if self._deadline_at is not None and self._clock() > self._deadline_at:
            self._exceeded("deadline")

    # -- engine hooks ----------------------------------------------------

    def on_conflict(self) -> None:
        """One CDCL conflict: charge it and re-check the deadline.

        Conflicts are expensive (analysis + backjump), so a clock read
        per conflict is in the noise and keeps deadline overshoot to
        a single conflict's worth of work.
        """
        self.conflicts += 1
        cap = self.budget.max_conflicts
        if cap is not None and self.conflicts > cap:
            self._exceeded("conflicts")
        self.check_deadline()

    def on_decision(self) -> None:
        """Amortized checkpoint for conflict-free search phases."""
        self._decision_ticks += 1
        if not (self._decision_ticks & 255):
            self.check_deadline()

    def tick(self, bdd_nodes: Optional[int] = None) -> None:
        """Cooperative checkpoint from a BDD kernel or driver loop.

        ``bdd_nodes`` is the manager's current allocation count; the
        kernels call this every 1024 work-stack iterations, bounding
        both overshoot past ``max_bdd_nodes`` and deadline latency.
        """
        if bdd_nodes is not None:
            if bdd_nodes > self.bdd_nodes:
                self.bdd_nodes = bdd_nodes
            cap = self.budget.max_bdd_nodes
            if cap is not None and bdd_nodes > cap:
                self._exceeded("bdd_nodes")
        self.check_deadline()

    def on_model(self) -> None:
        """One model produced by an enumeration query."""
        self.models += 1
        cap = self.budget.max_models
        if cap is not None and self.models > cap:
            self._exceeded("models")
        self.check_deadline()


def start_meter(budget: Any) -> Optional[BudgetMeter]:
    """Normalize ``None`` / :class:`Budget` / :class:`BudgetMeter`.

    The public query APIs accept either a budget (fresh meter per
    call) or an already-running meter (shared accounting across
    several calls, e.g. a model-checking fixpoint).
    """
    if budget is None:
        return None
    if isinstance(budget, BudgetMeter):
        return budget
    if isinstance(budget, Budget):
        return budget.start()
    raise ZenTypeError(
        f"expected a Budget, BudgetMeter, or None, got {budget!r}"
    )


class metered:
    """Context manager installing a meter on a BDD manager.

    Saves and restores the manager's previous budget, so metered
    operations nest and an abort never leaves a stale meter behind::

        with metered(context.manager, budget) as meter:
            ...  # manager kernels checkpoint against `meter`
    """

    def __init__(self, manager, budget: Any):
        self._manager = manager
        self._meter = start_meter(budget)
        self._previous = None

    def __enter__(self) -> Optional[BudgetMeter]:
        if self._meter is not None:
            self._previous = self._manager.budget
            self._manager.set_budget(self._meter)
        return self._meter

    def __exit__(self, *exc_info) -> None:
        if self._meter is not None:
            self._manager.set_budget(self._previous)


@dataclass(frozen=True)
class RungFailure:
    """A structured record of one abandoned rung of the fallback ladder.

    Retry and circuit-breaker policies need to distinguish *budget
    exhaustion* (try again with more resources, or shed load) from
    *genuine solver errors* (a broken encoding that no retry will fix),
    so each abandoned rung records the exception type and message, not
    just where it happened:

    * ``backend`` / ``max_list_length`` — the rung that was tried;
    * ``error_type`` — the exception class name
      (e.g. ``"ZenBudgetExceeded"``);
    * ``message`` — ``str(exception)``;
    * ``reason``  — the structured budget reason (``"deadline"``,
      ``"conflicts"``, ...) when the error carries one, else ``""``.
    """

    backend: str
    max_list_length: int
    error_type: str
    message: str
    reason: str = ""


@dataclass(frozen=True)
class QueryResult:
    """The structured answer of :func:`solve_with_fallback`.

    * ``answer``       — what ``find`` returned (``None`` = verified /
      no such input);
    * ``backend``      — name of the backend that answered;
    * ``max_list_length`` — the list bound the answering rung used;
    * ``stats``        — the answering attempt's meter statistics;
    * ``degradations`` — human-readable record of every rung that was
      abandoned before the answer (empty when the preferred
      configuration answered directly);
    * ``failures``     — the same abandoned rungs as structured
      :class:`RungFailure` records (exception type, message, reason);
    * ``profile``      — a :class:`~repro.telemetry.QueryProfile` of
      the answering rung when tracing was enabled, else ``None``.
    """

    answer: Any
    backend: str
    max_list_length: int
    stats: Dict[str, Any] = field(default_factory=dict)
    degradations: Tuple[str, ...] = ()
    failures: Tuple[RungFailure, ...] = ()
    profile: Optional[QueryProfile] = None

    @property
    def degraded(self) -> bool:
        """True when the preferred configuration did not answer."""
        return bool(self.degradations)


def _backend_name(backend: Any) -> str:
    if isinstance(backend, str):
        return backend
    name = getattr(backend, "name", None)
    if isinstance(name, str) and name:
        return name
    return type(backend).__name__.replace("Backend", "").lower()


def solve_with_fallback(
    function,
    predicate=None,
    *,
    backends: Sequence[Any] = ("sat", "bdd"),
    budget: Optional[Budget] = None,
    max_list_length: Optional[int] = None,
    degrade_list_lengths: Sequence[int] = (),
    validate: bool = True,
) -> QueryResult:
    """Portfolio ``find``: degrade gracefully across backends/bounds.

    Runs ``function.find(predicate, ...)`` down a ladder of rungs:
    each backend in ``backends`` at the full ``max_list_length``, then
    each coarser bound in ``degrade_list_lengths`` across the backends
    again.  Every rung runs under a fresh meter of the same `budget`;
    a rung that raises :class:`ZenBudgetExceeded` is recorded as a
    degradation and the next rung is tried.  The first rung to answer
    wins and its :class:`QueryResult` reports the path taken.

    Raises the final rung's :class:`ZenBudgetExceeded` (annotated with
    the attempted degradations) when the whole ladder is exhausted.
    Non-budget errors propagate immediately: a broken model should
    fail loudly, not silently fall through the portfolio.
    """
    from .function import DEFAULT_MAX_LIST_LENGTH

    if not backends:
        raise ZenTypeError("solve_with_fallback needs at least one backend")
    full = DEFAULT_MAX_LIST_LENGTH if max_list_length is None else max_list_length
    rungs = [(b, full) for b in backends]
    for depth in degrade_list_lengths:
        if depth >= full:
            raise ZenTypeError(
                f"degrade_list_lengths must be coarser than {full}, got {depth}"
            )
        rungs.extend((b, depth) for b in backends)

    degradations: list = []
    failures: list = []
    last_error: Optional[ZenBudgetExceeded] = None
    for backend, depth in rungs:
        meter = start_meter(budget)
        rung_span = None
        if TRACER.enabled:
            rung_span = TRACER.begin(
                "fallback.rung",
                {"backend": _backend_name(backend), "max_list_length": depth},
            )
        try:
            answer = function.find(
                predicate,
                backend=backend,
                max_list_length=depth,
                budget=meter,
                validate=validate,
            )
        except ZenBudgetExceeded as error:
            name = _backend_name(backend)
            if rung_span is not None:
                rung_span.attrs["outcome"] = f"budget_exceeded:{error.reason}"
                TRACER.finish(rung_span)
            degradations.append(
                f"{name}@list<={depth}: budget exceeded "
                f"({error.reason}): {type(error).__name__}: {error}"
            )
            failures.append(
                RungFailure(
                    backend=name,
                    max_list_length=depth,
                    error_type=type(error).__name__,
                    message=str(error),
                    reason=error.reason,
                )
            )
            last_error = error
            continue
        profile = None
        if rung_span is not None:
            rung_span.attrs["outcome"] = "answered"
            TRACER.finish(rung_span)
            from ..telemetry.profile import profile_from_spans

            profile = profile_from_spans(
                [rung_span],
                query="query.fallback",
                backend=_backend_name(backend),
                counters=meter.stats() if meter is not None else None,
            )
        return QueryResult(
            answer=answer,
            backend=_backend_name(backend),
            max_list_length=depth,
            stats=meter.stats() if meter is not None else {},
            degradations=tuple(degradations),
            failures=tuple(failures),
            profile=profile,
        )
    assert last_error is not None
    last_error.degradations = tuple(degradations)
    last_error.failures = tuple(failures)
    raise last_error
