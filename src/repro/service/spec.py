"""Picklable query descriptions for the fault-isolated query engine.

A :class:`QuerySpec` is everything a subprocess worker needs to run one
verification query: *how to rebuild the model* (a picklable builder
reference, since a built :class:`~repro.core.function.ZenFunction`
cannot cross a process boundary), *which analysis to run* (``find`` /
``verify`` / ``generate_inputs`` / ``transformer`` / ``evaluate`` /
``call``), and the knobs PR 2 introduced (backend, list bound,
cooperative :class:`~repro.core.budget.Budget`) plus the *hard* limits
only a process boundary can enforce (kill-based wall clock, RSS cap).

:func:`run_spec` executes a spec in the current process; the worker
loop calls it, and callers can use it directly for an in-process dry
run of a spec before shipping it to the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from ..core.budget import Budget, start_meter
from ..core.function import DEFAULT_MAX_LIST_LENGTH, ZenFunction, resolve_ref
from ..errors import ZenTypeError
from ..telemetry.spans import TRACER
from .admission import PRIORITIES

__all__ = ["QuerySpec", "clamp_spec_deadline", "resolve_ref", "run_spec"]

if False:  # typing-only, avoids a runtime import cycle
    from .cache import ModelCache

#: Analyses a spec may request.  "call" runs an arbitrary picklable
#: callable (used for baseline checks whose result is plain data).
QUERY_KINDS = (
    "find",
    "verify",
    "generate_inputs",
    "transformer",
    "evaluate",
    "call",
)

_SERVICE_BACKENDS = ("sat", "bdd")


@dataclass(frozen=True)
class QuerySpec:
    """A picklable description of one verification query.

    * ``builder`` — ``"module:attribute"`` reference (or picklable
      top-level callable) resolving to a ZenFunction, an annotated
      model function, or a builder callable invoked with
      ``builder_args``/``builder_kwargs`` (see
      :meth:`ZenFunction.from_ref`).  For ``kind="call"`` the resolved
      object is called directly with ``args`` and its (picklable)
      result is the answer.
    * ``kind`` — one of ``find`` / ``verify`` / ``generate_inputs`` /
      ``transformer`` / ``evaluate`` / ``call``.
    * ``predicate`` — optional reference to the find/verify property,
      resolved the same way as ``builder``.
    * ``backend`` / ``max_list_length`` / ``budget`` / ``validate`` —
      forwarded to the analysis exactly as in the in-process API.
      Backends must be named (``"sat"``/``"bdd"``): instances are
      process-local and cannot be shipped to a worker.
    * ``timeout_s`` — *hard* wall-clock limit; the parent kills the
      worker when it trips (``None`` = the engine's default).
    * ``rss_limit_bytes`` — additional address space the query may
      allocate beyond the worker's usage at task start; the worker
      enforces it with ``RLIMIT_AS`` so a blowup raises MemoryError
      inside the worker instead of taking down the machine.
    * ``args`` — concrete inputs for ``evaluate`` / ``call``.
    * ``label`` — free-form tag echoed through results and attempt
      records.
    * ``trace`` — when True, the executing process records a trace of
      the query (a ``task.<kind>`` root span over the compile/solve
      instrumentation) and ships the serialized span tree back in the
      result payload under ``"spans"``.  The engine sets this
      automatically when the parent's tracer is enabled.
    * ``use_cache`` — when True (default) a worker may serve the
      builder resolution from its warm
      :class:`~repro.service.cache.ModelCache`; set False to force a
      cold rebuild (differential cold-vs-warm checks).
    * ``priority`` — admission class (``"interactive"`` / ``"batch"``
      / ``"fuzz"``).  Interactive work is never shed and is admitted
      while any queue slot remains; batch and fuzz hit backpressure
      and load shedding first.
    * ``deadline_s`` — *client* deadline for the whole query: queue
      wait, every dispatch, every retry backoff, and the in-worker
      solve all decrement one budget.  Distinct from ``timeout_s``
      (the hard per-attempt kill).  Expiry raises
      :class:`~repro.errors.ZenQueryTimeout` with the attempt history.
    """

    builder: Any
    kind: str = "find"
    builder_args: Tuple[Any, ...] = ()
    builder_kwargs: Dict[str, Any] = field(default_factory=dict)
    predicate: Any = None
    backend: str = "sat"
    max_list_length: int = DEFAULT_MAX_LIST_LENGTH
    budget: Optional[Budget] = None
    validate: bool = True
    max_inputs: int = 64
    args: Tuple[Any, ...] = ()
    timeout_s: Optional[float] = None
    rss_limit_bytes: Optional[int] = None
    label: str = ""
    trace: bool = False
    use_cache: bool = True
    priority: str = "interactive"
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ZenTypeError(
                f"QuerySpec.kind must be one of {QUERY_KINDS}, got "
                f"{self.kind!r}"
            )
        if not isinstance(self.backend, str) or (
            self.backend not in _SERVICE_BACKENDS
        ):
            raise ZenTypeError(
                "QuerySpec.backend must be a backend *name* "
                f"{_SERVICE_BACKENDS} (instances are process-local), got "
                f"{self.backend!r}"
            )
        if self.budget is not None and not isinstance(self.budget, Budget):
            raise ZenTypeError(
                f"QuerySpec.budget must be a Budget or None, got "
                f"{self.budget!r} (meters are per-process state)"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ZenTypeError(
                f"QuerySpec.timeout_s must be positive, got {self.timeout_s!r}"
            )
        if self.priority not in PRIORITIES:
            raise ZenTypeError(
                f"QuerySpec.priority must be one of {PRIORITIES}, got "
                f"{self.priority!r}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ZenTypeError(
                "QuerySpec.deadline_s must be positive, got "
                f"{self.deadline_s!r}"
            )

    def with_backend(self, backend: str) -> "QuerySpec":
        """A copy of this spec targeting a different backend."""
        if backend == self.backend:
            return self
        return replace(self, backend=backend)

    def with_trace(self, trace: bool = True) -> "QuerySpec":
        """A copy of this spec with tracing switched on (or off)."""
        if trace == self.trace:
            return self
        return replace(self, trace=trace)


#: Floor for clamped limits: a deadline that already expired still
#: ships a sliver of budget so the failure is attributed to the
#: deadline machinery, not to a zero-division or negative timeout.
MIN_REMAINING_S = 1e-3


def clamp_spec_deadline(
    spec: QuerySpec,
    remaining_s: Optional[float],
    budget_factor: float = 1.0,
) -> QuerySpec:
    """Shrink a spec's limits to a remaining client deadline.

    Deadline *propagation*: the engine computes how much of the
    client's ``deadline_s`` is left at dispatch time (after queue wait,
    earlier attempts, and backoff) and clamps both enforcement layers
    to it — the hard per-attempt ``timeout_s`` and the cooperative
    :class:`~repro.core.budget.Budget` deadline (attached fresh when
    the spec carries none, so even a budget-less spec stops
    cooperatively before the hard kill).  ``budget_factor`` < 1
    additionally shrinks the *cooperative* deadline (brownout mode);
    the hard timeout is left at the remaining deadline so well-behaved
    queries fail soft, never by the kill path.

    With ``remaining_s=None`` only the brownout shrink applies (and
    only to a budget the spec already carries).
    """
    if remaining_s is None:
        if budget_factor >= 1.0 or spec.budget is None:
            return spec
        base = spec.budget
        if base.deadline_s is None:
            return spec
        return replace(
            spec,
            budget=replace(
                base,
                deadline_s=max(
                    MIN_REMAINING_S, base.deadline_s * budget_factor
                ),
            ),
        )
    remaining = max(MIN_REMAINING_S, remaining_s)
    timeout = (
        remaining
        if spec.timeout_s is None
        else min(spec.timeout_s, remaining)
    )
    base = spec.budget if spec.budget is not None else Budget()
    soft = remaining * max(MIN_REMAINING_S, budget_factor)
    if base.deadline_s is not None:
        soft = min(base.deadline_s, soft)
    return replace(
        spec,
        timeout_s=timeout,
        budget=replace(base, deadline_s=max(MIN_REMAINING_S, soft)),
    )


def _build_function(
    spec: QuerySpec, cache: Optional["ModelCache"]
) -> Any:
    """Resolve the spec's model, via the warm cache when allowed.

    Returns ``(function, hit, entry)`` — ``hit`` is None when the
    cache was not consulted, and ``entry`` is the live
    :class:`~repro.service.cache.CacheEntry` (or None) so kinds with
    compiled artifacts (transformers) can reuse them.
    """
    if cache is not None and spec.use_cache:
        return cache.get_function(spec)
    return (
        ZenFunction.from_ref(
            spec.builder, *spec.builder_args, **spec.builder_kwargs
        ),
        None,
        None,
    )


def run_spec(
    spec: QuerySpec, cache: Optional["ModelCache"] = None
) -> Dict[str, Any]:
    """Execute a spec in the current process.

    Returns a picklable payload: ``answer`` (the analysis result),
    ``stats`` (the budget meter's final snapshot, ``{}`` when the spec
    carries no budget), and ``function`` (the model's name).  With
    ``spec.trace`` the payload additionally carries ``"spans"`` — the
    serialized trace of this execution (rooted at a ``task.<kind>``
    span) — so a parent process can merge a worker's timeline into its
    own.  With a ``cache`` (the worker's warm
    :class:`~repro.service.cache.ModelCache`), builder resolution may
    be served warm and the payload carries ``"cache_hit"``.  Raises
    whatever the underlying
    analysis raises — the worker loop converts exceptions into
    structured replies.
    """
    if not spec.trace:
        return _execute_spec(spec, cache)
    # A worker starts each task with a clean, disabled tracer; an
    # in-process caller may already be tracing, in which case the root
    # joins the caller's tree *and* is shipped in the payload.
    fresh = not TRACER.enabled
    if fresh:
        TRACER.reset()
        TRACER.enable()
    # Named task.<kind> (not query.<kind>) so the wrapper does not
    # collide with the analysis's own query.* span in profile phases.
    root = TRACER.begin(
        f"task.{spec.kind}",
        {"label": spec.label, "backend": spec.backend},
    )
    try:
        payload = _execute_spec(spec, cache)
    finally:
        TRACER.finish(root)
        if fresh:
            TRACER.disable()
    payload["spans"] = [root.to_dict()]
    return payload


def _execute_spec(
    spec: QuerySpec, cache: Optional["ModelCache"] = None
) -> Dict[str, Any]:
    if spec.kind == "call":
        target = resolve_ref(spec.builder)
        if not callable(target):
            raise ZenTypeError(
                f"kind='call' needs a callable builder, got {target!r}"
            )
        answer = target(*spec.builder_args, *spec.args, **spec.builder_kwargs)
        return {"answer": answer, "stats": {}, "function": getattr(
            target, "__name__", "<call>"
        )}

    fn, cache_hit, entry = _build_function(spec, cache)
    meter = start_meter(spec.budget)
    predicate = resolve_ref(spec.predicate) if spec.predicate else None

    if spec.kind == "find":
        answer = fn.find(
            predicate,
            backend=spec.backend,
            max_list_length=spec.max_list_length,
            budget=meter,
            validate=spec.validate,
        )
    elif spec.kind == "verify":
        if predicate is None:
            raise ZenTypeError("kind='verify' needs a predicate (invariant)")
        answer = fn.verify(
            predicate,
            backend=spec.backend,
            max_list_length=spec.max_list_length,
            budget=meter,
            validate=spec.validate,
        )
    elif spec.kind == "generate_inputs":
        answer = fn.generate_inputs(
            max_inputs=spec.max_inputs,
            max_list_length=spec.max_list_length,
            budget=meter,
        )
    elif spec.kind == "transformer":
        # Transformers hold BDD nodes of a process-local manager —
        # exactly the compiled state the warm cache is for: the first
        # build is the expensive, crash/OOM-prone step, repeats reuse
        # the in-worker BDDs and only re-ship the picklable summary.
        transformer = None
        if entry is not None:
            transformer = entry.artifacts.get("transformer")
        if transformer is None:
            transformer = fn.transformer(budget=meter)
            if entry is not None:
                entry.artifacts["transformer"] = transformer
        answer = {"built": True, "function": fn.name}
        nodes = getattr(
            getattr(transformer, "context", None), "manager", None
        )
        if nodes is not None and hasattr(nodes, "num_nodes"):
            answer["manager_nodes"] = nodes.num_nodes
    elif spec.kind == "evaluate":
        answer = fn.evaluate(*spec.args)
    else:  # pragma: no cover - guarded by __post_init__
        raise ZenTypeError(f"unhandled kind {spec.kind!r}")

    payload: Dict[str, Any] = {
        "answer": answer,
        "stats": meter.stats() if meter is not None else {},
        "function": fn.name,
    }
    if cache_hit is not None:
        payload["cache_hit"] = cache_hit
    return payload
