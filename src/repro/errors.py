"""Exception hierarchy for the repro (PyZen) library.

Every error raised by the public API derives from :class:`ZenError` so
that callers can catch library failures with a single except clause.
"""

from __future__ import annotations


class ZenError(Exception):
    """Base class for all errors raised by this library."""


class ZenTypeError(ZenError, TypeError):
    """An expression was built or used with incompatible Zen types."""


class ZenArityError(ZenError, TypeError):
    """A Zen function was declared or applied with the wrong arity."""


class ZenUnsupportedError(ZenError, NotImplementedError):
    """The requested operation is not supported by the chosen backend."""


class ZenEvaluationError(ZenError, RuntimeError):
    """Concrete or symbolic evaluation failed (e.g. malformed model)."""


class ZenSolverError(ZenError, RuntimeError):
    """A solver substrate (SAT or BDD) was used incorrectly."""


class ZenDepthError(ZenError, ValueError):
    """A model is too deep or too large for a configured bound.

    Raised when a bounded structure (a list) exceeds its maximum size,
    and when building a model's expression recurses past the
    interpreter's recursion limit (a very long ACL or route map built
    as nested ``if``s); the latter names the function and chains the
    :class:`RecursionError`.  Either way it is the client's model, not
    the engine, that is at fault.
    """


class ZenBudgetExceeded(ZenError, TimeoutError):
    """A query exhausted its :class:`~repro.core.budget.Budget`.

    Carries the structured context a caller needs to degrade
    gracefully instead of guessing from a message string:

    * ``reason``  — which limit tripped (``"deadline"``,
      ``"conflicts"``, ``"bdd_nodes"`` or ``"models"``);
    * ``budget``  — the :class:`Budget` that was configured;
    * ``stats``   — partial statistics at the moment of exhaustion
      (elapsed seconds, conflicts seen, BDD nodes allocated, models
      produced);
    * ``degradations`` — fallback steps already attempted when raised
      by :func:`~repro.core.budget.solve_with_fallback`.
    """

    def __init__(self, message, reason="", budget=None, stats=None):
        super().__init__(message)
        self.reason = reason
        self.budget = budget
        self.stats = dict(stats or {})
        self.degradations: tuple = ()
        self.failures: tuple = ()


class ZenServiceError(ZenError, RuntimeError):
    """Base class for failures of the fault-isolated query service.

    Everything the :class:`~repro.service.QueryEngine` raises derives
    from this, so callers can fence off *execution-layer* trouble
    (crashed workers, timeouts, open breakers) from *model-layer*
    errors (type errors, unsound encodings) with one except clause.
    """


class ZenWorkerCrash(ZenServiceError):
    """A subprocess worker died mid-query (crash, abort, or OOM kill).

    ``pid`` is the dead worker and ``exitcode`` the raw process exit
    status (negative = killed by that signal number).
    """

    def __init__(self, message, pid=None, exitcode=None):
        super().__init__(message)
        self.pid = pid
        self.exitcode = exitcode


class ZenQueryTimeout(ZenServiceError, TimeoutError):
    """A query blew its *hard* (kill-based) wall-clock deadline.

    Unlike :class:`ZenBudgetExceeded` — which relies on the solver
    cooperating with checkpoint hooks — this deadline is enforced by
    the parent killing the worker process, so it fires even inside a
    non-checkpointed kernel or a wedged interpreter.
    """

    def __init__(self, message, timeout_s=None, pid=None, attempts=()):
        super().__init__(message)
        self.timeout_s = timeout_s
        self.pid = pid
        #: Per-attempt history when the engine raised this for an
        #: exhausted *client deadline* (``deadline_s``) rather than a
        #: single hard per-attempt timeout; empty otherwise.
        self.attempts = tuple(attempts)


class ZenQueueFull(ZenServiceError):
    """Admission control rejected a submission: the queue is full.

    Raised *synchronously* by ``QueryEngine.submit``/``run`` before any
    task is created — the fast-reject half of backpressure.  Callers
    that prefer blocking backpressure pass ``submit(..., wait=True)``.

    ``priority`` is the class that was refused, ``depth``/``limit``
    the admission depth and that class's admit limit at the moment of
    rejection (lower-priority classes saturate first by design, so an
    ``interactive`` ZenQueueFull implies the queue is truly full).
    """

    def __init__(self, message, priority="", depth=None, limit=None):
        super().__init__(message)
        self.priority = priority
        self.depth = depth
        self.limit = limit


class ZenOverloadShed(ZenServiceError):
    """An admitted query was dropped by utilization-triggered shedding.

    Under sustained overload the dispatcher drops queued ``batch``/
    ``fuzz`` work (never ``interactive``) to keep latency bounded for
    the traffic that matters; each dropped task fails with this error
    and a structured ``shed_overload`` attempt record instead of
    waiting out a deadline it could never meet.
    """

    def __init__(self, message, attempts=(), priority=""):
        super().__init__(message)
        self.attempts = tuple(attempts)
        self.priority = priority


class ZenCircuitOpen(ZenServiceError):
    """Every backend eligible for a query had an open circuit breaker.

    The query was shed without executing; retry after the breaker
    cooldown, or consult ``attempts`` for the per-backend shed record.
    """

    def __init__(self, message, attempts=()):
        super().__init__(message)
        self.attempts = tuple(attempts)


class ZenQueryFailed(ZenServiceError):
    """A query exhausted its whole retry/fallback ladder.

    ``attempts`` is the full per-attempt history
    (:class:`~repro.service.AttemptRecord`): which worker ran each
    attempt, how it failed, what backoff was applied, and the breaker
    state at the time — the observability record the engine keeps for
    every query.
    """

    def __init__(self, message, attempts=(), label=""):
        super().__init__(message)
        self.attempts = tuple(attempts)
        self.label = label


class ZenBackendDisagreement(ZenServiceError):
    """The differential oracle caught the backends contradicting.

    Both the SAT and BDD workers completed the same query but one
    reported a (concrete-replay-validated) witness while the other
    reported none — an encoding bug in at least one backend.  The
    exception is self-contained for offline triage (fuzz artifacts
    serialize it without re-running anything):

    * ``answers`` — backend name → the answer that side returned;
    * ``attempts`` — the combined per-attempt history of both sides
      (:class:`~repro.service.AttemptRecord` tuples, interleaved);
    * ``attempts_by_backend`` — backend name → only that side's
      attempt records;
    * ``profiles`` — backend name → that side's
      :class:`~repro.telemetry.QueryProfile` (None when the parent
      tracer was disabled for the query).
    """

    def __init__(
        self,
        message,
        answers=None,
        attempts=(),
        attempts_by_backend=None,
        profiles=None,
    ):
        super().__init__(message)
        self.answers = dict(answers or {})
        self.attempts = tuple(attempts)
        self.attempts_by_backend = {
            backend: tuple(records)
            for backend, records in dict(attempts_by_backend or {}).items()
        }
        self.profiles = dict(profiles or {})


class ZenComposeError(ZenServiceError):
    """A compositional query lost a shard, a shard's assumption, or
    its witness.

    The compose driver fans per-shard summary tasks out through the
    query engine; when a shard's dispatch fails terminally (worker
    crash after retries, hard timeout, queue rejection) the
    recomposition is missing an interface summary and *must not* fall
    back to guessing.  The same error reports an arriving set that
    escapes a shard's interface assumption — a planner bug, since the
    planner only assumes what it can prove — and a "reachable" whose
    walked-back witness is missing or fails concrete replay, which is
    a summary or recomposer bug.  The failure is structural and
    carries ``shard_id`` (when one shard is at fault) plus the
    underlying per-shard errors (if any) so callers can re-dispatch.
    """

    def __init__(self, message, shard_id="", causes=()):
        super().__init__(message)
        self.shard_id = shard_id
        self.causes = tuple(causes)


class ZenUnsoundResultError(ZenError, RuntimeError):
    """A solver produced a model that fails concrete replay.

    Raised by counterexample self-validation: every model returned by
    ``find``/``verify`` is replayed through the concrete evaluator, so
    a latent encoding bug in a solver backend becomes a loud failure
    instead of a silently wrong packet.  ``model`` holds the rejected
    decoded inputs and ``backend`` names the engine that produced it.
    """

    def __init__(self, message, model=None, backend=""):
        super().__init__(message)
        self.model = model
        self.backend = backend
