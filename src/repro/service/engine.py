"""The fault-isolated parallel query engine.

:class:`QueryEngine` executes :class:`~repro.service.spec.QuerySpec`
queries in a pool of subprocess workers, adding the guarantees the
in-process API cannot give:

* **hard limits** — wall-clock deadlines are enforced by killing the
  worker (SIGKILL, not a cooperative checkpoint) and RSS caps by
  ``RLIMIT_AS`` inside the worker, so a runaway CDCL loop, a BDD
  blowup in a non-checkpointed kernel, or a wedged interpreter cannot
  take the parent down;
* **crash isolation + respawn** — a worker that dies (``os._exit``,
  native abort, OOM kill) is observed via pipe EOF and its exit
  status, and a fresh worker replaces it before the next attempt.
  Benign in-worker exceptions come back as structured error replies
  and never recycle the worker; a builder that keeps killing workers
  trips per-ref crash-loop suppression after
  ``crash_loop_threshold`` worker deaths;
* **retries with exponential backoff + jitter** — crash/timeout/OOM
  outcomes are retried up to ``retries`` times per backend rung;
* **per-backend circuit breakers** — N consecutive failures open the
  breaker and shed that backend's load onto the next rung of the
  fallback ladder (the same backend ladder as
  :func:`~repro.core.budget.solve_with_fallback`), half-opening after
  a cooldown;
* **a differential oracle** — :meth:`QueryEngine.run_differential`
  runs the SAT and BDD backends on the same query in parallel
  workers; each answer is still concrete-replay-validated in its
  worker (PR 2), and if both complete with contradictory sat/unsat
  verdicts the engine raises
  :class:`~repro.errors.ZenBackendDisagreement`.

Warm dispatch (PR 5)
--------------------

The dispatch path amortizes the per-query costs that made the pool
anti-scale on tiny solves:

* **warm workers** — each worker keeps a
  :class:`~repro.service.cache.ModelCache` of resolved builder refs
  and compiled artifacts; a respawned worker starts cold;
* **sticky routing** — a task's builder ref hashes to a preferred
  worker so repeat queries land on a warm cache.  A model task waits
  for that worker; an idle worker steals only a model-free ``call``
  task or one side of a differential run, and only while the sticky
  worker is busy;
* **request batching** — one pipe round-trip carries up to
  ``max_batch_size`` specs and streams one reply per spec back, with
  the hard deadline re-armed per spec as replies land;
* **one future per query** — :meth:`submit` returns a
  :class:`concurrent.futures.Future`, :meth:`gather` collects, and an
  event loop awaits ``asyncio.wrap_future(engine.submit(spec))``.

A persistent dispatcher thread owns the pool.  Every query enters
through ``_submit`` (admit, build the task, enqueue it) and every
finished task leaves through ``_settle`` (release the admission slot,
count an engine-side outcome, resolve the future), so any number of
caller threads (or one event loop with thousands of in-flight
queries) can share one engine.

Overload protection (PR 7)
--------------------------

The engine degrades *predictably* instead of queueing unboundedly:

* **admission control** — a bounded admission window
  (``max_queue_depth``) with per-priority headroom
  (:mod:`repro.service.admission`): ``interactive`` may use every
  slot, ``batch``/``fuzz`` hit :class:`~repro.errors.ZenQueueFull`
  backpressure earlier (fast-reject by default, blocking with
  ``submit(..., wait=True)``);
* **load shedding** — at ``shed_threshold`` utilization the
  dispatcher drops queued ``batch``/``fuzz`` tasks (never
  ``interactive``) with a structured ``shed_overload`` attempt record
  and :class:`~repro.errors.ZenOverloadShed`;
* **deadline propagation** — ``QuerySpec.deadline_s`` is one budget
  for the query's whole life: queue wait, dispatch, retries, and the
  in-worker cooperative :class:`~repro.core.budget.Budget` all
  decrement it.  Tasks that expire in the queue fail without burning
  a worker; a retry that cannot finish inside the remaining deadline
  is never launched; batched specs that expired behind a slow
  batch-mate are skipped by the worker itself.

Every result carries its full attempt history — worker pids, attempt
counts, backoff delays, breaker states, cache hits, batch sizes — for
observability.
"""

from __future__ import annotations

import os
import random
import select
import sys
import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field, replace
from multiprocessing import connection, get_all_start_methods, get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import (
    ZenBackendDisagreement,
    ZenCircuitOpen,
    ZenOverloadShed,
    ZenQueryFailed,
    ZenQueryTimeout,
    ZenServiceError,
    ZenTypeError,
)
from ..obs.recorder import RECORDER, FlightRecorder
from ..obs.rolling import RollingHistogram
from ..obs.status import EngineStatus, write_status_file
from ..telemetry.metrics import METRICS
from ..telemetry.profile import QueryProfile, profile_from_spans
from ..telemetry.spans import TRACER, Span, span
from .admission import PRIORITIES, PRIORITY_RANK, AdmissionController
from .breaker import OPEN as BREAKER_OPEN
from .breaker import CircuitBreaker
from .cache import ref_cache_key
from .spec import _SERVICE_BACKENDS, QuerySpec, clamp_spec_deadline
from .worker import worker_main

__all__ = ["AttemptRecord", "QueryEngine", "ServiceResult"]

#: Exception types that indicate a misconfigured spec or model, not a
#: backend failure: no retry, no ladder, no breaker charge.
_CONFIG_ERRORS = frozenset(
    {"ZenTypeError", "ZenArityError", "ZenDepthError"}
)

#: Outcomes caused by the execution substrate rather than the query;
#: these are retried (with backoff) on the same backend.
_RETRYABLE = frozenset({"crash", "timeout", "oom"})

#: Terminal outcomes the engine decides itself, with no worker answer;
#: ``overload_stats()`` and ``status().counters`` count each one.
_ENGINE_OUTCOMES = (
    "shed_overload",
    "deadline_expired",
    "cancelled",
    "engine_shutdown",
)

#: Queue waits shorter than this don't earn a span (scheduler noise).
_QUEUE_WAIT_SPAN_FLOOR_S = 0.005

#: Retry backoff grows by this factor per attempt (from
#: ``backoff_base_s``, capped at ``backoff_max_s``).
BACKOFF_FACTOR = 2.0

#: Span of the per-priority rolling latency windows in ``status()``.
LATENCY_WINDOW_S = 60.0


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt (or shed decision) in a query's execution history.

    * ``backend`` / ``attempt`` — the rung and the 1-based attempt
      number within it;
    * ``worker_pid`` — the subprocess that ran it (None for sheds);
    * ``outcome`` — ``ok`` / ``crash`` / ``timeout`` / ``oom`` /
      ``budget_exceeded`` / ``error`` / ``shed`` / ``cancelled`` /
      ``crash_loop`` / ``shed_overload`` (dropped by load shedding) /
      ``deadline_expired`` (the client deadline ran out) /
      ``engine_shutdown`` (queued when the engine drained);
    * ``error_type`` / ``error`` — structured failure identity and
      message (empty on success);
    * ``backoff_s`` — the backoff delay scheduled *after* this attempt
      (0 when it was the last attempt on its rung);
    * ``elapsed_s`` — wall-clock duration of the attempt (also
      available as :attr:`duration_ms`);
    * ``queue_wait_s`` — how long the task sat eligible-but-unserved
      before this attempt was submitted (pool contention + backoff
      skew; 0 for sheds, which never reach a worker);
    * ``breaker_state`` — the backend's breaker state right after the
      outcome was recorded.
    """

    backend: str
    attempt: int
    worker_pid: Optional[int]
    outcome: str
    error_type: str = ""
    error: str = ""
    backoff_s: float = 0.0
    elapsed_s: float = 0.0
    queue_wait_s: float = 0.0
    breaker_state: str = ""

    @property
    def duration_ms(self) -> float:
        """Wall-clock duration of this attempt in milliseconds."""
        return self.elapsed_s * 1000.0


@dataclass(frozen=True)
class ServiceResult:
    """A completed query plus its observability record.

    ``answer`` is exactly what the in-process analysis would have
    returned (already concrete-replay-validated for find/verify when
    the spec's ``validate`` flag is on).  ``attempts`` is the full
    :class:`AttemptRecord` history, ``stats`` the budget meter's final
    snapshot from the answering worker, and ``elapsed_s`` the query's
    total wall time in the engine including retries and backoff.

    For differential-oracle runs, ``agreed`` is True when both
    backends completed and concurred (None when only one side
    finished) and ``answers`` maps each backend to its answer.

    When the parent's tracer was enabled for the query, ``profile``
    is a :class:`~repro.telemetry.QueryProfile` built from the
    answering worker's span tree (compile/solve/kernel timings).

    Warm-dispatch observability: ``cache_hit`` is True/False when the
    worker consulted its model cache (None when the spec opted out),
    and ``batch_size`` is how many specs shared the answering
    submission's round-trip.

    Overload observability: ``priority`` echoes the spec's admission
    class and ``queue_wait_s`` totals the eligible-but-unserved time
    across every attempt.
    """

    answer: Any
    backend: str
    kind: str
    label: str = ""
    function: str = ""
    worker_pid: Optional[int] = None
    attempts: Tuple[AttemptRecord, ...] = ()
    stats: Dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0
    agreed: Optional[bool] = None
    answers: Optional[Dict[str, Any]] = None
    profile: Optional[QueryProfile] = None
    cache_hit: Optional[bool] = None
    batch_size: int = 1
    priority: str = "interactive"
    queue_wait_s: float = 0.0

    @property
    def retried(self) -> bool:
        """True when more than one execution attempt was needed."""
        return sum(1 for a in self.attempts if a.outcome != "shed") > 1


class _WorkerHandle:
    """Owns one worker process and its pipe; respawnable in place."""

    def __init__(self, ctx, config: Dict[str, Any], index: int):
        self._ctx = ctx
        self._config = config
        self.index = index
        self.process = None
        self.conn = None
        self.restarts = -1  # first ensure() is a spawn, not a restart

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def ensure(self) -> None:
        """Spawn (or respawn) the worker if it is not running."""
        if self.alive:
            return
        self.reap()
        parent_conn, child_conn = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._config),
            daemon=True,
            name=f"repro-query-worker-{self.index}",
        )
        self.process.start()
        child_conn.close()  # parent keeps one end; EOF now detects death
        self.conn = parent_conn
        self.restarts += 1

    def kill(self) -> Optional[int]:
        """SIGKILL the worker (if alive), reap it, return the exitcode."""
        exitcode = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
            exitcode = self.process.exitcode
        self.reap()
        return exitcode

    def reap(self) -> None:
        """Release pipe and process objects of a dead worker."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        self.process = None

    def shutdown(self) -> None:
        """Polite stop: sentinel, short join, then kill."""
        if self.process is None:
            return
        if self.conn is not None and self.process.is_alive():
            try:
                self.conn.send(None)
            except (OSError, ValueError):
                pass
        self.process.join(timeout=1.0)
        self.kill()


class _Task:
    """Mutable scheduler state for one query."""

    __slots__ = (
        "spec",
        "ladder",
        "ladder_pos",
        "attempt",
        "ref_key",
        "sticky_index",
        "ready_at",
        "submitted_at",
        "enqueued_at",
        "queue_wait_s",
        "started_at",
        "finished_at",
        "attempts",
        "result",
        "group",
        "done",
        "future",
        "trace_parent",
        "batch_size",
        "deadline_at",
        "launched",
        "total_queue_wait_s",
    )

    def __init__(
        self,
        spec: QuerySpec,
        ladder: Sequence[str],
        ref_key: str,
        sticky_index: int,
    ):
        self.spec = spec
        self.ladder = list(ladder)
        self.ladder_pos = 0
        self.attempt = 0  # retries used on the current rung
        self.ref_key = ref_key
        self.sticky_index = sticky_index
        self.ready_at = 0.0
        self.submitted_at = 0.0
        self.enqueued_at = 0.0
        self.queue_wait_s = 0.0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.attempts: List[AttemptRecord] = []
        self.result: Optional[ServiceResult] = None
        #: Identity shared by the sides of one differential run (which
        #: must never share a batch); None for every other task.
        self.group: Optional[object] = None
        #: True once :meth:`QueryEngine._settle` returned the admission
        #: slot and resolved the future.
        self.done = False
        self.future: "Future[ServiceResult]" = Future()
        self.trace_parent: Optional[Span] = None
        self.batch_size = 1
        #: Absolute client deadline (engine clock); None = no deadline.
        self.deadline_at: Optional[float] = None
        #: True once the first dispatch marked the future RUNNING —
        #: after that, ``Future.cancel()`` is (correctly) refused.
        self.launched = False
        #: Queue wait accumulated across every attempt (the per-attempt
        #: value in ``queue_wait_s`` covers only the latest dispatch).
        self.total_queue_wait_s = 0.0

    @property
    def backend(self) -> str:
        # Clamp: a task whose final rung just failed sits one past the
        # end until the scheduler finish-fails it.
        return self.ladder[min(self.ladder_pos, len(self.ladder) - 1)]


class _Batch:
    """One in-flight submission: N tasks sharing a worker round-trip.

    The worker executes the specs in order and streams one reply per
    spec; ``next_index`` is the spec currently executing, and
    ``deadline`` is re-armed from that spec's timeout each time a
    reply lands.
    """

    __slots__ = ("seq", "tasks", "next_index", "deadline")

    def __init__(self, seq: int, tasks: List[_Task]):
        self.seq = seq
        self.tasks = tasks
        self.next_index = 0
        self.deadline: Optional[float] = None

    @property
    def current(self) -> _Task:
        return self.tasks[self.next_index]

    @property
    def exhausted(self) -> bool:
        return self.next_index >= len(self.tasks)


class QueryEngine:
    """A pool of subprocess workers executing verification queries.

    Use as a context manager (workers are killed on exit)::

        with QueryEngine(pool_size=4) as engine:
            result = engine.run(QuerySpec(builder="mymodels:acl_model"))
            future = engine.submit(QuerySpec(builder="mymodels:acl_model"))
            oracle = engine.run_differential(
                QuerySpec(builder="mymodels:acl_model")
            )
    """

    def __init__(
        self,
        pool_size: int = 2,
        *,
        retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        jitter_s: float = 0.02,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
        default_timeout_s: Optional[float] = 60.0,
        seed: int = 0,
        max_batch_size: int = 8,
        crash_loop_threshold: int = 3,
        cache_capacity: int = 32,
        max_queue_depth: Optional[int] = 10_000,
        shed_threshold: float = 0.9,
        recorder: Optional[FlightRecorder] = None,
        bundle_dir: Optional[str] = None,
        status_file: Optional[str] = None,
        status_interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if pool_size < 1:
            raise ZenTypeError(f"pool_size must be >= 1, got {pool_size!r}")
        if retries < 0:
            raise ZenTypeError(f"retries must be >= 0, got {retries!r}")
        if max_batch_size < 1:
            raise ZenTypeError(
                f"max_batch_size must be >= 1, got {max_batch_size!r}"
            )
        if crash_loop_threshold < 0:
            raise ZenTypeError(
                "crash_loop_threshold must be >= 0 (0 disables), got "
                f"{crash_loop_threshold!r}"
            )
        if cache_capacity < 1:
            raise ZenTypeError(
                f"cache_capacity must be >= 1, got {cache_capacity!r}"
            )
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ZenTypeError(
                "max_queue_depth must be >= 1 or None (unbounded), got "
                f"{max_queue_depth!r}"
            )
        if not 0.0 < shed_threshold <= 1.0:
            raise ZenTypeError(
                f"shed_threshold must be in (0, 1], got {shed_threshold!r}"
            )
        # fork shares the parent's imported modules (cheap spawn,
        # builder refs always resolve); spawn is the portable
        # fallback and gets sys.path shipped in the worker config.
        methods = get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
        self.pool_size = pool_size
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.jitter_s = jitter_s
        self.default_timeout_s = default_timeout_s
        self.max_batch_size = max_batch_size
        self.crash_loop_threshold = crash_loop_threshold
        self.cache_capacity = cache_capacity
        self._clock = clock
        self._rng = random.Random(seed)
        self._seq = 0
        self._closed = False
        self._draining = False
        self._ctx = get_context(start_method)
        config = {
            "sys_path": list(sys.path),
            "cache_capacity": cache_capacity,
        }
        self._workers = [
            _WorkerHandle(self._ctx, config, i) for i in range(pool_size)
        ]
        self._breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                failure_threshold=breaker_threshold,
                cooldown_s=breaker_cooldown_s,
                clock=clock,
                name=name,
            )
            for name in _SERVICE_BACKENDS
        }
        # -- dispatcher plumbing ----------------------------------------
        self._commands: "deque[Tuple[Any, ...]]" = deque()
        self._cmd_lock = threading.Lock()
        self._dispatcher_lock = threading.Lock()
        self._dispatcher: Optional[threading.Thread] = None
        self._wakeup_r, self._wakeup_w = os.pipe()
        # -- warm-dispatch state ----------------------------------------
        self._crash_counts: Dict[str, int] = {}
        self._cache_agg = {"hit": 0, "miss": 0, "evict": 0}
        self._worker_cache_snapshots: Dict[int, Dict[str, float]] = {}
        self._batches = 0
        self._batched_tasks = 0
        self._sticky_hits = 0
        self._steals = 0
        # -- overload-protection state ----------------------------------
        self.shed_threshold = shed_threshold
        self._admission = AdmissionController(
            max_depth=max_queue_depth,
            shed_threshold=shed_threshold,
            clock=clock,
        )
        #: Outcomes the engine decides without a worker answering,
        #: each counted once by :meth:`_settle`.
        self._engine_outcomes: Dict[str, int] = dict.fromkeys(
            _ENGINE_OUTCOMES, 0
        )
        # -- operational observability (repro.obs) -----------------------
        if status_interval_s <= 0:
            raise ZenTypeError(
                f"status_interval_s must be > 0, got {status_interval_s!r}"
            )
        self._recorder = recorder if recorder is not None else RECORDER
        self.bundle_dir = bundle_dir
        self.status_file = status_file
        self.status_interval_s = status_interval_s
        self._status_written_at = -float("inf")
        self._pool_busy = 0
        self._latency_windows = {
            p: RollingHistogram(LATENCY_WINDOW_S) for p in PRIORITIES
        }

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def shutdown(self, timeout_s: float = 30.0) -> None:
        """Drain deterministically, then close.

        Unlike :meth:`close` (which kills in-flight work), a drain:

        * stops admitting new work (further submissions raise
          :class:`~repro.errors.ZenServiceError`);
        * resolves every *queued* task's future with a structured
          ``engine_shutdown`` attempt outcome — never left
          forever-pending;
        * lets in-flight batches run to completion, still bounded by
          their hard timeouts and remaining client deadlines;
        * then stops the dispatcher and the workers.

        ``timeout_s`` bounds the wait for in-flight work; whatever is
        still running after it is killed by the :meth:`close` that
        always follows.
        """
        if self._closed:
            return
        self._draining = True
        dispatcher = self._dispatcher
        if dispatcher is not None and dispatcher.is_alive():
            with self._cmd_lock:
                self._commands.append(("drain",))
            self._wake()
            dispatcher.join(timeout=timeout_s)
        self.close()

    def close(self) -> None:
        """Stop dispatcher and workers (sentinel, then SIGKILL)."""
        if self._closed:
            return
        self._closed = True
        dispatcher = self._dispatcher
        if dispatcher is not None and dispatcher.is_alive():
            with self._cmd_lock:
                self._commands.append(("stop",))
            self._wake()
            dispatcher.join(timeout=10.0)
        for handle in self._workers:
            handle.shutdown()
        for fd in (self._wakeup_r, self._wakeup_w):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._wakeup_r = self._wakeup_w = -1

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # -- observability ---------------------------------------------------

    @property
    def breakers(self) -> Dict[str, CircuitBreaker]:
        """The per-backend circuit breakers (live objects)."""
        return dict(self._breakers)

    def breaker_snapshots(self) -> Dict[str, dict]:
        """Picklable snapshot of every breaker's state and history."""
        return {name: b.snapshot() for name, b in self._breakers.items()}

    def worker_pids(self) -> List[Optional[int]]:
        """Current pid of each pool slot (None = not spawned)."""
        return [handle.pid for handle in self._workers]

    def total_restarts(self) -> int:
        """Worker respawns performed since the engine started."""
        return sum(max(0, handle.restarts) for handle in self._workers)

    def cache_stats(self) -> Dict[str, Any]:
        """Aggregated warm-cache effectiveness across worker replies.

        ``hit``/``miss``/``evict`` are totals observed on successful
        replies; ``hit_rate`` is hits / lookups (0.0 before any
        lookup); ``workers`` maps pool index → last cache snapshot seen from
        that worker.
        """
        lookups = self._cache_agg["hit"] + self._cache_agg["miss"]
        return {
            "hit": self._cache_agg["hit"],
            "miss": self._cache_agg["miss"],
            "evict": self._cache_agg["evict"],
            "hit_rate": (
                self._cache_agg["hit"] / lookups if lookups else 0.0
            ),
            "workers": dict(self._worker_cache_snapshots),
        }

    def dispatch_stats(self) -> Dict[str, Any]:
        """Batching and sticky-routing effectiveness counters."""
        return {
            "batches": self._batches,
            "batched_tasks": self._batched_tasks,
            "mean_batch_size": (
                self._batched_tasks / self._batches if self._batches else 0.0
            ),
            "sticky_hits": self._sticky_hits,
            "steals": self._steals,
            "max_batch_size": self.max_batch_size,
            "crash_loops": dict(self._crash_counts),
        }

    def overload_stats(self) -> Dict[str, Any]:
        """Admission, shedding, and deadline counters."""
        return {
            "queue_depth": self._admission.depth(),
            "utilization": self._admission.utilization(),
            "shed_threshold": self.shed_threshold,
            "admission": self._admission.detail(),
            **self._engine_outcomes,
            # Forced warts: benchmarks/e2e/workloads.py (frozen) reads
            # both keys; neither mechanism exists any more.
            "brownout": {"transitions": []},
            "hedge": {"launched": 0},
        }

    @property
    def recorder(self) -> FlightRecorder:
        """The flight recorder this engine feeds (shared by default)."""
        return self._recorder

    def debug_bundles(self) -> List[str]:
        """Paths of the debug bundles captured so far (oldest first)."""
        return self._recorder.bundle_paths()

    def status(self, now: Optional[float] = None) -> EngineStatus:
        """One self-contained operational snapshot (see ``repro.obs``).

        Safe to call from any thread; with ``status_file=`` configured
        the dispatcher also writes one on a cadence so
        ``python -m repro.obs status`` works from another process.
        """
        at = now if now is not None else self._clock()
        admission = self._admission.detail()
        cache = self.cache_stats()
        return EngineStatus(
            generated_unix=time.time(),
            pid=os.getpid(),
            pool_size=self.pool_size,
            pool_busy=self._pool_busy,
            workers=[p for p in self.worker_pids() if p is not None],
            queue={
                "depth": admission["depth"],
                "max_depth": admission["max_depth"],
                "utilization": admission["utilization"],
                "in_flight": admission["in_flight"],
                "limits": admission["limits"],
            },
            latency_ms={
                priority: window.summary(at)
                for priority, window in self._latency_windows.items()
            },
            cache={
                "hits": cache["hit"],
                "misses": cache["miss"],
                "evictions": cache["evict"],
                "hit_rate": cache["hit_rate"],
            },
            breakers={
                name: breaker.state
                for name, breaker in self._breakers.items()
            },
            compose={
                key[len("compose."):]: float(value)
                for key, value in METRICS.snapshot().items()
                if key.startswith("compose.")
            },
            counters={
                **{
                    outcome: float(count)
                    for outcome, count in self._engine_outcomes.items()
                },
                "restarts": float(self.total_restarts()),
                **{
                    f"recorder.{key}": float(value)
                    for key, value in self._recorder.snapshot().items()
                },
            },
        )

    # -- public API ------------------------------------------------------

    def run(
        self, spec: QuerySpec, *, fallback: bool = True
    ) -> ServiceResult:
        """Execute one query; raise its structured error on failure.

        With ``fallback`` (default) the query ladders across the
        engine's backends, preferred backend first; without it only
        ``spec.backend`` is tried.
        """
        outcome = self.run_many([spec], fallback=fallback)[0]
        if isinstance(outcome, ZenServiceError):
            raise outcome
        return outcome

    def run_many(
        self, specs: Sequence[QuerySpec], *, fallback: bool = True
    ) -> List[Union[ServiceResult, ZenServiceError]]:
        """Execute a portfolio of queries across the pool in parallel.

        Returns one entry per spec, in order: a :class:`ServiceResult`
        on success or the structured :class:`ZenServiceError` the
        query ended with (not raised, so one poisoned query cannot
        mask the rest of the portfolio).
        """
        with span("service.run_many", queries=len(specs)):
            # Admit-then-enqueue one query at a time: blocking admission
            # of the whole portfolio up front would deadlock when the
            # portfolio is larger than the admission window (admitted
            # tasks only release their slots once dispatched).
            return self.gather(
                [self.submit(s, fallback=fallback, wait=True) for s in specs]
            )

    def submit(
        self,
        spec: QuerySpec,
        *,
        fallback: bool = True,
        wait: bool = False,
        wait_timeout_s: Optional[float] = None,
    ) -> "Future[ServiceResult]":
        """Enqueue one query and return its future immediately.

        The future resolves to a :class:`ServiceResult` or raises the
        query's structured :class:`~repro.errors.ZenServiceError`.
        Futures compose with :meth:`gather` (blocking) or
        ``asyncio.wrap_future`` (awaitable), so one process can keep
        thousands of queries in flight against the pool without
        blocking per batch.

        Backpressure: when the admission window for ``spec.priority``
        is full the call raises :class:`~repro.errors.ZenQueueFull`
        *synchronously* (fast-reject, the default) or, with
        ``wait=True``, blocks until a slot frees (bounded by
        ``wait_timeout_s`` when given).

        A future cancelled (``Future.cancel()``) before its task is
        dispatched is skipped by the dispatcher with a ``cancelled``
        attempt record; the worker never runs it.
        """
        ladder = [spec.backend]
        if fallback:
            ladder.extend(b for b in _SERVICE_BACKENDS if b != spec.backend)
        return self._submit(spec, ladder, wait, wait_timeout_s).future

    def gather(
        self, futures: Sequence["Future[ServiceResult]"]
    ) -> List[Union[ServiceResult, ZenServiceError]]:
        """Wait for :meth:`submit` futures; error objects, not raises.

        Mirrors :meth:`run_many` semantics: one entry per future in
        order, each a :class:`ServiceResult` or the structured error
        the query failed with.
        """
        out: List[Union[ServiceResult, ZenServiceError]] = []
        for future in futures:
            try:
                out.append(future.result())
            except ZenServiceError as error:
                out.append(error)
        return out

    def run_differential(
        self, spec: Union[QuerySpec, Dict[str, QuerySpec]]
    ) -> ServiceResult:
        """Cross-check a find/verify query across two backends.

        Both backends run the same query in parallel workers (each
        answer concrete-replay-validated in its worker).  Semantics:

        * both complete and agree on satisfiability → the
          first-finished result, ``agreed=True``, ``answers`` holding
          both sides;
        * both complete and *contradict* (one found a validated
          witness, the other proved none exists) → raise
          :class:`ZenBackendDisagreement`;
        * one side fails (crash/timeout/budget/breaker) → the
          survivor's validated answer, ``agreed=None``;
        * both fail → :class:`ZenQueryFailed` with the combined
          attempt history.

        A plain spec runs once per service backend.  `spec` may also
        be a dict mapping backend name to spec — the two sides are
        then expected to be semantically equivalent queries (useful
        for oracle testing and staged encodings).
        """
        if isinstance(spec, dict):
            sides = {b: s.with_backend(b) for b, s in spec.items()}
        else:
            sides = {b: spec.with_backend(b) for b in _SERVICE_BACKENDS}
        if len(sides) < 2:
            raise ZenTypeError(
                f"differential mode needs two backends, got {list(sides)}"
            )
        for name, side in sides.items():
            if side.kind not in ("find", "verify"):
                raise ZenTypeError(
                    "differential mode compares find/verify answers, got "
                    f"kind={side.kind!r} for backend {name!r}"
                )
        group = object()
        with span("service.run_differential", backends=list(sides)):
            # Incremental admit-then-enqueue (see run_many): a depth-1
            # window must be able to drain side 1 before side 2 blocks.
            tasks = [
                self._submit(side, [name], True, None, group)
                for name, side in sides.items()
            ]
            wait_futures([t.future for t in tasks])

        combined: Tuple[AttemptRecord, ...] = tuple(
            record for task in tasks for record in task.attempts
        )
        finished = [t for t in tasks if t.result is not None]
        if len(finished) == len(tasks):
            answers = {t.ladder[0]: t.result.answer for t in tasks}
            verdicts = {b: a is not None for b, a in answers.items()}
            if len(set(verdicts.values())) > 1:
                self._obs_trigger(
                    "backend_disagreement",
                    detail=", ".join(
                        f"{b}={'sat' if v else 'unsat'}"
                        for b, v in sorted(verdicts.items())
                    ),
                    extra={
                        "verdicts": dict(verdicts),
                        "labels": {
                            b: s.label for b, s in sides.items()
                        },
                    },
                )
                raise ZenBackendDisagreement(
                    "differential oracle: backends disagree on "
                    f"satisfiability ({verdicts}); each side passed its "
                    "own validation, so at least one encoding is unsound",
                    answers=answers,
                    attempts=combined,
                    attempts_by_backend={
                        t.ladder[0]: tuple(t.attempts) for t in tasks
                    },
                    profiles={
                        t.ladder[0]: t.result.profile for t in tasks
                    },
                )
            winner = min(finished, key=lambda t: t.finished_at)
            return replace(
                winner.result,
                attempts=combined,
                agreed=True,
                answers=answers,
            )
        if finished:
            winner = min(finished, key=lambda t: t.finished_at)
            answers = {t.ladder[0]: t.result.answer for t in finished}
            return replace(
                winner.result,
                attempts=combined,
                agreed=None,
                answers=answers,
            )
        raise ZenQueryFailed(
            "differential oracle: every backend failed",
            attempts=combined,
        )

    # -- the way in and the way out -------------------------------------

    def _submit(
        self,
        spec: QuerySpec,
        ladder: Sequence[str],
        wait: bool,
        wait_timeout_s: Optional[float],
        group: Optional[object] = None,
    ) -> _Task:
        """The one way in: admit ``spec``, build its task, enqueue it.

        The task's trace parent is the caller's innermost open span
        (``service.run_many`` / ``service.run_differential`` while one
        is open): the dispatcher thread has no span stack of its own,
        so worker span trees and retroactive attempt spans attach to
        the submitting thread's span.
        """
        if self._closed:
            raise ZenServiceError("QueryEngine is closed")
        if self._draining:
            raise ZenServiceError("QueryEngine is draining (shutdown)")
        start = self._clock()
        try:
            self._admission.admit(
                spec.priority,
                wait=wait,
                timeout_s=wait_timeout_s,
                abort=lambda: self._closed or self._draining,
            )
        except ZenServiceError:
            self._recorder.record_event(
                "admission_reject", priority=spec.priority,
                label=spec.label,
            )
            raise
        waited = self._clock() - start
        if TRACER.enabled and waited >= _QUEUE_WAIT_SPAN_FLOOR_S:
            # Retroactive span: blocking admission happened on the
            # caller's thread, inside its open run_many/submit span.
            TRACER.record(
                "service.admission_wait",
                TRACER.now_wall() - waited,
                waited,
                {"priority": spec.priority, "label": spec.label},
            )
        ref_key = ref_cache_key(spec)
        sticky = zlib.crc32(ref_key.encode("utf-8")) % self.pool_size
        task = _Task(spec, ladder, ref_key, sticky)
        task.group = group
        if TRACER.enabled:
            task.trace_parent = TRACER.current()
        if spec.deadline_s is not None:
            # The client deadline starts ticking at submission, so the
            # queue wait ahead of the first dispatch counts against it.
            task.deadline_at = self._clock() + spec.deadline_s
        self._ensure_dispatcher()
        with self._cmd_lock:
            self._commands.append(("task", task))
        self._wake()
        return task

    def _settle(
        self,
        task: _Task,
        now: float,
        error: Optional[ZenServiceError] = None,
    ) -> None:
        """The one way out, exactly once per task.

        Returns the admission slot, counts an engine-side outcome (the
        last attempt record names it), feeds the obs layer and
        resolves the future: with ``task.result`` when ``error`` is
        None, else with ``error``.  A future the caller cancelled is
        already resolved and stays so.

        The obs feed is the always-on per-query cost of the flight
        recorder and rolling windows: one deque append and one
        histogram observe — measured in bench_micro_bdd's telemetry
        row.  Latency runs from the dispatcher's intake, so the queue
        wait before the first dispatch counts like every later one.
        """
        if task.done:
            return
        task.done = True
        task.finished_at = now
        self._admission.release(task.spec.priority)
        last = task.attempts[-1] if task.attempts else None
        outcome = last.outcome if last is not None else ""
        if outcome in self._engine_outcomes:
            self._engine_outcomes[outcome] += 1
        ok = task.result is not None
        latency = max(0.0, now - (task.enqueued_at or now))
        window = self._latency_windows.get(task.spec.priority)
        if window is not None:
            window.observe(now, latency)
        self._recorder.record_attempt(
            {
                "spec": task.spec.label or task.ref_key,
                "kind": task.spec.kind,
                "priority": task.spec.priority,
                "ok": ok,
                "outcome": outcome or ("ok" if ok else "unknown"),
                "backend": task.backend,
                "latency_s": round(latency, 6),
                "queue_wait_s": round(task.total_queue_wait_s, 6),
                "attempts": len(task.attempts),
                "at": now,
            }
        )
        try:
            if error is None:
                task.future.set_result(task.result)
            else:
                task.future.set_exception(error)
        except InvalidStateError:
            pass  # cancelled by the caller before dispatch

    def _record_engine_outcome(
        self,
        task: _Task,
        outcome: str,
        error_type: str,
        message: str,
        pid: Optional[int] = None,
    ) -> List[AttemptRecord]:
        """Append the record of an outcome in ``_ENGINE_OUTCOMES``.

        None of them charges a breaker or retries.  Returns the task's
        attempt history for the error that settles it.
        """
        task.attempts.append(
            AttemptRecord(
                backend=task.backend,
                attempt=task.attempt + 1,
                worker_pid=pid,
                outcome=outcome,
                error_type=error_type,
                error=message,
                queue_wait_s=task.total_queue_wait_s,
            )
        )
        return task.attempts

    def _ensure_dispatcher(self) -> None:
        with self._dispatcher_lock:
            if self._dispatcher is not None and self._dispatcher.is_alive():
                return
            thread = threading.Thread(
                target=self._dispatch_loop,
                name="repro-service-dispatcher",
                daemon=True,
            )
            self._dispatcher = thread
            thread.start()

    def _wake(self) -> None:
        fd = self._wakeup_w
        if fd < 0:
            return
        try:
            os.write(fd, b"x")
        except OSError:  # pragma: no cover - closed during shutdown
            pass

    def _drain_wakeup(self) -> None:
        fd = self._wakeup_r
        if fd < 0:
            return
        try:
            while True:
                readable, _, _ = select.select([fd], [], [], 0)
                if not readable:
                    return
                if not os.read(fd, 4096):
                    return
        except OSError:  # pragma: no cover - closed during shutdown
            return

    # -- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """The persistent scheduler: owns the pool until told to stop.

        Invariant: an unfinished task is in ``pending``, or in exactly
        one in-flight batch — never both and never two.  A reply, a
        deadline or a worker death therefore concerns one batch and the
        task it is running; nothing else resolves that task meanwhile.
        """
        pending: List[_Task] = []
        inflight: Dict[_WorkerHandle, _Batch] = {}
        state = {"stop": False, "draining": False}
        try:
            while True:
                self._drain_commands(pending, inflight, state)
                if state["stop"]:
                    self._shutdown_dispatch(pending, inflight)
                    return
                now = self._clock()
                self._expire_queued(pending, now)
                if state["draining"]:
                    # Drain: fail the queue with engine_shutdown, let
                    # in-flight work finish (deadlines still enforced
                    # below), never launch anything new.
                    self._drain_queued(pending, now)
                    if not pending and not inflight:
                        return  # drained; close() stops the workers
                else:
                    self._shed_overloaded(pending, now)
                    self._fill_workers(pending, inflight, now)
                self._pool_busy = len(inflight)
                self._obs_tick(self._clock())
                timeout = self._wait_timeout(
                    pending, inflight, self._clock(), state["draining"]
                )
                if self.status_file is not None:
                    # Keep the status file fresh even while the pool
                    # sits idle.
                    cap = max(0.05, self.status_interval_s)
                    timeout = cap if timeout is None else min(timeout, cap)
                waitables: List[Any] = [
                    h.conn for h in inflight if h.conn is not None
                ]
                if self._wakeup_r >= 0:
                    waitables.append(self._wakeup_r)
                try:
                    ready = connection.wait(waitables, timeout=timeout)
                except OSError:  # pragma: no cover - fd churn race
                    ready = []
                if self._wakeup_r in ready:
                    self._drain_wakeup()
                self._collect_replies(ready, pending, inflight)
                self._enforce_deadlines(pending, inflight)
        except Exception as error:  # pragma: no cover - defensive
            failure = ZenServiceError(
                f"dispatcher thread failed: {type(error).__name__}: {error}"
            )
            self._shutdown_dispatch(pending, inflight, failure)

    def _drain_commands(self, pending, inflight, state) -> None:
        while True:
            with self._cmd_lock:
                if not self._commands:
                    break
                command = self._commands.popleft()
            kind = command[0]
            if kind == "task":
                task = command[1]
                task.enqueued_at = self._clock()
                pending.append(task)
            elif kind == "drain":
                state["draining"] = True
            elif kind == "stop":
                state["stop"] = True

    def _shutdown_dispatch(
        self, pending, inflight, error: Optional[ZenServiceError] = None
    ) -> None:
        failure = error or ZenServiceError("QueryEngine is closed")
        now = self._clock()
        for handle, batch in list(inflight.items()):
            handle.kill()
            for task in batch.tasks[batch.next_index:]:
                self._settle(task, now, failure)
        inflight.clear()
        for task in pending:
            self._settle(task, now, failure)
        pending.clear()

    def _wait_timeout(
        self, pending, inflight, now, draining=False
    ) -> Optional[float]:
        timeouts: List[float] = []
        for batch in inflight.values():
            if batch.deadline is not None:
                timeouts.append(batch.deadline - now)
        ready_pending = False
        for task in pending:
            if task.done:
                continue
            if task.deadline_at is not None:
                timeouts.append(task.deadline_at - now)
            if task.ready_at > now:
                timeouts.append(task.ready_at - now)
            else:
                ready_pending = True
        if draining and inflight:
            timeouts.append(0.1)
        if timeouts:
            return max(0.0, min(timeouts))
        if ready_pending and not inflight:
            # Defensive: ready work but nothing launched and nothing to
            # wait for should not happen; poll rather than wedge.
            return 0.05
        return None

    # -- overload protection (dispatcher side) ---------------------------

    def _expire_queued(self, pending, now) -> None:
        """Fail queued tasks whose future was cancelled or whose client
        deadline passed — without burning a worker on either."""
        for task in list(pending):
            if task.done:
                pending.remove(task)
                continue
            if task.future.cancelled():
                pending.remove(task)
                self._cancel_task(task, now)
                continue
            if task.deadline_at is not None and now >= task.deadline_at:
                pending.remove(task)
                self._expire_task(task, now, where="in queue")

    def _cancel_task(self, task, now) -> None:
        """Settle a task whose future the caller cancelled pre-dispatch."""
        self._record_engine_outcome(
            task, "cancelled", "", "cancelled by the caller before dispatch"
        )
        self._settle(task, now)

    def _expire_task(self, task, now, where, pid=None) -> None:
        """Resolve a task as deadline_expired (no retry, no breaker)."""
        deadline_s = task.spec.deadline_s
        attempts = self._record_engine_outcome(
            task,
            "deadline_expired",
            "ZenQueryTimeout",
            f"client deadline of {deadline_s}s expired {where}",
            pid,
        )
        self._settle(
            task,
            now,
            ZenQueryTimeout(
                f"client deadline of {deadline_s}s expired "
                f"{where} (label {task.spec.label!r})",
                timeout_s=deadline_s,
                pid=pid,
                attempts=attempts,
            ),
        )

    def _drain_queued(self, pending, now) -> None:
        """Resolve every queued task with an engine_shutdown outcome."""
        for task in pending:
            if task.done:
                continue
            # The record names the drain; the raised class stays the
            # generic query failure.
            attempts = self._record_engine_outcome(
                task,
                "engine_shutdown",
                "ZenServiceError",
                "engine drained before this task was dispatched",
            )
            self._settle(
                task,
                now,
                ZenQueryFailed(
                    "engine shut down (drain) before this query was "
                    "dispatched",
                    attempts=attempts,
                    label=task.spec.label,
                ),
            )
        pending.clear()

    def _shed_overloaded(self, pending, now) -> None:
        """Drop queued batch/fuzz tasks while utilization is critical.

        Lowest priority sheds first, newest arrivals within a class
        first (oldest queued work is closest to service).  interactive
        is never shed — its protection is the reserved admission
        headroom plus this policy.
        """
        if self._admission.max_depth is None:
            return
        if self._admission.utilization() < self.shed_threshold:
            return
        candidates = [
            t
            for t in pending
            if not t.done and t.spec.priority != "interactive"
        ]
        candidates.sort(
            key=lambda t: (
                PRIORITY_RANK.get(t.spec.priority, 1),
                t.enqueued_at,
            ),
            reverse=True,
        )
        for task in candidates:
            if self._admission.utilization() < self.shed_threshold:
                break
            pending.remove(task)
            self._shed_task(task, now)

    def _shed_task(self, task, now) -> None:
        """Resolve a task as shed_overload (structured, never retried)."""
        utilization = self._admission.utilization()
        if TRACER.enabled:
            TRACER.record(
                "service.shed",
                TRACER.now_wall(),
                0.0,
                {
                    "priority": task.spec.priority,
                    "utilization": round(utilization, 3),
                },
                parent=task.trace_parent,
            )
        self._recorder.record_event(
            "shed",
            priority=task.spec.priority,
            utilization=round(utilization, 3),
        )
        attempts = self._record_engine_outcome(
            task,
            "shed_overload",
            "ZenOverloadShed",
            f"queue overloaded (utilization {utilization:.0%}); "
            f"{task.spec.priority} task shed",
        )
        self._settle(
            task,
            now,
            ZenOverloadShed(
                "query shed under overload: queue overloaded "
                f"(priority {task.spec.priority!r}, "
                f"utilization {utilization:.0%})",
                attempts=attempts,
                priority=task.spec.priority,
            ),
        )

    # -- operational observability (repro.obs) ---------------------------

    def _obs_tick(self, now: float) -> None:
        """Periodic obs work on the dispatcher thread.

        Refreshes the cross-process status file on its cadence.
        """
        if (
            self.status_file is not None
            and now - self._status_written_at >= self.status_interval_s
        ):
            self._status_written_at = now
            try:
                write_status_file(self.status_file, self.status(now=now))
            except OSError:  # pragma: no cover - disk trouble must not
                pass  # kill the dispatcher

    def _obs_trigger(
        self,
        cause: str,
        detail: str = "",
        *,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Optional[str]:
        """Record an operational trigger; capture a debug bundle.

        Bundles are only written when the engine was configured with
        ``bundle_dir=``; the trigger event lands in the flight
        recorder's ring either way.  Per-cause cooldown and bundle-dir
        pruning live in the recorder.
        """
        context = self._bundle_context()
        if extra:
            context.update(extra)
        return self._recorder.trigger(
            cause,
            detail,
            context=context,
            bundle_dir=self.bundle_dir,
            now=self._clock(),
        )

    def _bundle_context(self) -> Dict[str, Any]:
        """Engine config + live state frozen into a debug bundle."""
        return {
            "engine": {
                "pool_size": self.pool_size,
                "retries": self.retries,
                "backends": list(self._breakers),
                "max_batch_size": self.max_batch_size,
                "crash_loop_threshold": self.crash_loop_threshold,
                "cache_capacity": self.cache_capacity,
                "shed_threshold": self.shed_threshold,
            },
            "overload": self.overload_stats(),
            "cache": self.cache_stats(),
            "dispatch": self.dispatch_stats(),
            "breakers": self.breaker_snapshots(),
            "worker_pids": self.worker_pids(),
        }

    # -- worker filling (sticky + batching) ------------------------------

    def _fill_workers(self, pending, inflight, now) -> None:
        """Assign ready tasks to idle workers until a fixpoint.

        Multiple passes: a worker going busy in one pass legitimizes
        steals (tasks sticky to it become stealable) in the next.
        """
        progress = True
        while progress and pending:
            progress = False
            for handle in self._workers:
                if handle in inflight:
                    continue
                chosen = self._select_batch(handle, pending, inflight, now)
                if not chosen:
                    continue
                progress = True
                if not self._launch_batch(handle, chosen, inflight, now):
                    # Broken pipe: the worker was killed; requeue and
                    # let the next pass resubmit to the respawn.
                    for task, _ in chosen:
                        pending.append(task)

    def _select_batch(
        self, handle, pending, inflight, now
    ) -> List[Tuple[_Task, str]]:
        """Pick up to ``max_batch_size`` ready tasks for this worker.

        Sticky rule: a worker takes its own tasks freely.  A task that
        names a model waits for its sticky worker, whose cache holds
        that model warm; only a model-free ``call`` task (a chaos
        sleep) or one side of a differential group may be stolen, and
        then only while its sticky worker is busy.  Stealing model
        tasks thrashed every worker's cache on ``service_stream`` (hit
        rate 0.61, 1,122 steals against 1,328 sticky hits); waiting
        reads 0.98 and 0 steals.  The two sides of a differential group
        never share a batch, so they run in parallel workers.

        Scheduling order is priority-major (interactive before batch
        before fuzz), FIFO within a class — the stable sort preserves
        arrival order, so overload cannot starve a class internally.
        """
        chosen: List[Tuple[_Task, str]] = []
        groups: set = set()
        ordered = sorted(
            pending, key=lambda t: PRIORITY_RANK.get(t.spec.priority, 1)
        )
        for task in ordered:
            if len(chosen) >= self.max_batch_size:
                break
            if task.done:
                pending.remove(task)
                continue
            if task.ready_at > now:
                continue
            if task.group in groups:
                continue
            if task.sticky_index != handle.index and (
                (task.spec.kind != "call" and task.group is None)
                or self._workers[task.sticky_index] not in inflight
            ):
                continue
            backend = self._resolve_rung(task, now)
            pending.remove(task)
            if backend is None:
                continue  # finished in place (shed-out or crash loop)
            chosen.append((task, backend))
            if task.group is not None:
                groups.add(task.group)
        return chosen

    def _resolve_rung(self, task: _Task, now: float) -> Optional[str]:
        """Advance the task past shed rungs; None = finished in place."""
        count = self._crash_counts.get(task.ref_key, 0)
        if self.crash_loop_threshold and count >= self.crash_loop_threshold:
            task.attempts.append(
                AttemptRecord(
                    backend=task.backend,
                    attempt=task.attempt + 1,
                    worker_pid=None,
                    outcome="crash_loop",
                    error_type="ZenCrashLoop",
                    error=(
                        f"builder {task.ref_key!r} killed {count} workers; "
                        "crash-loop suppression is refusing further "
                        "attempts until it succeeds elsewhere"
                    ),
                )
            )
            # Capture the bundle before resolving the future: a caller
            # reacting to the failure must already see the bundle.
            self._obs_trigger(
                "crash_loop",
                detail=task.ref_key,
                extra={"crash_count": count},
            )
            self._finish_failure(task, now)
            return None
        while True:
            if task.ladder_pos >= len(task.ladder):
                self._finish_failure(task, now)
                return None
            backend = task.backend
            breaker = self._breakers[backend]
            if breaker.allow():
                return backend
            task.attempts.append(
                AttemptRecord(
                    backend=backend,
                    attempt=task.attempt + 1,
                    worker_pid=None,
                    outcome="shed",
                    error_type="ZenCircuitOpen",
                    error=f"circuit open for backend {backend!r}",
                    breaker_state=breaker.state,
                )
            )
            task.ladder_pos += 1
            task.attempt = 0

    def _launch_batch(self, handle, chosen, inflight, now) -> bool:
        """Ship one batch to a worker; False on a broken pipe."""
        # First dispatch flips each future to RUNNING; a future the
        # caller managed to cancel() in the enqueue→launch window is
        # honored here instead of shipping dead work to a worker.
        live = []
        for task, backend in chosen:
            if task.launched:
                live.append((task, backend))
            elif task.future.set_running_or_notify_cancel():
                task.launched = True
                live.append((task, backend))
            else:
                self._cancel_task(task, now)
        if not live:
            return True
        chosen = live
        handle.ensure()
        specs = []
        deadlines = []
        for task, backend in chosen:
            spec = task.spec.with_backend(backend)
            if TRACER.enabled:
                # Parent is profiling: have the worker trace this
                # execution and ship its span tree back in the reply.
                spec = spec.with_trace(True)
            # Deadline propagation: the spec that ships carries only
            # what is left of the client deadline — in both the hard
            # timeout and the cooperative budget.
            if task.deadline_at is not None:
                spec = clamp_spec_deadline(spec, task.deadline_at - now)
            specs.append(spec)
            deadlines.append(task.deadline_at)
        self._seq += 1
        batch = _Batch(self._seq, [task for task, _ in chosen])
        size = len(chosen)
        for task, _ in chosen:
            # Queue wait: time between becoming eligible (enqueue, or
            # the end of the previous attempt's backoff) and now.
            task.queue_wait_s = max(
                0.0, now - max(task.ready_at, task.enqueued_at)
            )
            task.total_queue_wait_s += task.queue_wait_s
            if task.started_at is None:
                task.started_at = now
            task.submitted_at = now
            task.batch_size = size
            if task.sticky_index == handle.index:
                self._sticky_hits += 1
            else:
                self._steals += 1
            if (
                TRACER.enabled
                and task.queue_wait_s >= _QUEUE_WAIT_SPAN_FLOOR_S
            ):
                TRACER.record(
                    "service.queue_wait",
                    TRACER.now_wall() - task.queue_wait_s,
                    task.queue_wait_s,
                    {
                        "backend": task.backend,
                        "label": task.spec.label,
                        "batch_size": size,
                    },
                    parent=task.trace_parent,
                )
        first = batch.current
        timeout = self._attempt_timeout(first, first.spec, now)
        batch.deadline = None if timeout is None else now + timeout
        try:
            handle.conn.send(
                (
                    "batch",
                    batch.seq,
                    tuple(specs),
                    tuple(deadlines),
                )
            )
        except (OSError, ValueError):
            handle.kill()
            return False
        inflight[handle] = batch
        self._batches += 1
        self._batched_tasks += size
        return True

    def _timeout_for(self, spec: QuerySpec) -> Optional[float]:
        return (
            spec.timeout_s
            if spec.timeout_s is not None
            else self.default_timeout_s
        )

    def _attempt_timeout(
        self, task: _Task, spec: QuerySpec, now: float
    ) -> Optional[float]:
        """Hard per-attempt timeout clamped to the client deadline."""
        timeout = self._timeout_for(spec)
        if task.deadline_at is not None:
            remaining = max(0.001, task.deadline_at - now)
            timeout = (
                remaining if timeout is None else min(timeout, remaining)
            )
        return timeout

    # -- reply collection ------------------------------------------------

    def _collect_replies(self, ready, pending, inflight) -> None:
        by_conn = {h.conn: h for h in inflight}
        for conn in ready:
            handle = by_conn.get(conn)
            if handle is None:
                continue
            while handle in inflight and handle.conn is not None:
                try:
                    if not handle.conn.poll():
                        break
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    self._on_worker_death(
                        handle, pending, inflight, self._clock()
                    )
                    break
                try:
                    seq, index, status, info = message
                except (TypeError, ValueError):
                    self._on_worker_death(
                        handle, pending, inflight, self._clock()
                    )
                    break
                batch = inflight.get(handle)
                if (
                    batch is None
                    or seq != batch.seq
                    or index != batch.next_index
                ):
                    continue  # stale reply from a pre-kill submission
                self._on_reply(
                    batch, handle, status, info, pending, inflight,
                    self._clock(),
                )

    def _advance_batch(self, batch, handle, inflight, now) -> None:
        batch.next_index += 1
        if batch.exhausted:
            del inflight[handle]
            return
        nxt = batch.current
        nxt.submitted_at = now
        timeout = self._attempt_timeout(nxt, nxt.spec, now)
        batch.deadline = None if timeout is None else now + timeout

    def _requeue_rest(self, batch, pending, now) -> None:
        """Return a dead batch's not-yet-run tasks to the queue, uncharged."""
        for task in batch.tasks[batch.next_index + 1:]:
            task.ready_at = now
            pending.append(task)

    def _on_reply(
        self, batch, handle, status, info, pending, inflight, now
    ) -> None:
        task = batch.current
        backend = task.backend
        breaker = self._breakers[backend]
        elapsed = float(info.get("elapsed_s", now - task.submitted_at))
        pid = handle.pid
        if status == "expired":
            # The worker skipped the spec: its client deadline passed
            # while it waited behind batch-mates.  Substrate is fine —
            # no breaker charge, no retry.
            self._expire_task(
                task,
                now,
                where=f"behind its batch-mates in worker pid {pid}",
                pid=pid,
            )
            self._advance_batch(batch, handle, inflight, now)
            return
        if status == "ok":
            breaker.record_success()
            self._crash_counts.pop(task.ref_key, None)
            self._absorb_cache_info(handle, info)
            task.attempts.append(
                AttemptRecord(
                    backend=backend,
                    attempt=task.attempt + 1,
                    worker_pid=pid,
                    outcome="ok",
                    elapsed_s=elapsed,
                    queue_wait_s=task.queue_wait_s,
                    breaker_state=breaker.state,
                )
            )
            profile = None
            worker_spans = info.get("spans")
            if worker_spans and TRACER.enabled:
                # Merge the worker's timeline into the parent trace
                # (the foreign pid keeps it on its own track) and
                # condense it into the result's profile.
                for tree in worker_spans:
                    TRACER.adopt(tree, parent=task.trace_parent)
                    self._recorder.record_span(tree)
                profile = profile_from_spans(
                    worker_spans,
                    query=f"query.{task.spec.kind}",
                    backend=backend,
                    counters=dict(info.get("stats", {})),
                )
            task.result = ServiceResult(
                answer=info.get("answer"),
                backend=backend,
                kind=task.spec.kind,
                label=task.spec.label,
                function=info.get("function", ""),
                worker_pid=pid,
                attempts=tuple(task.attempts),
                stats=dict(info.get("stats", {})),
                elapsed_s=now - (task.started_at or now),
                profile=profile,
                cache_hit=info.get("cache_hit"),
                batch_size=task.batch_size,
                priority=task.spec.priority,
                queue_wait_s=task.total_queue_wait_s,
            )
            self._settle(task, now)
            self._advance_batch(batch, handle, inflight, now)
            return
        if status == "oom":
            # Even a survived MemoryError leaves allocator state
            # suspect: recycle the worker before its next task.  The
            # rest of the batch is requeued uncharged.
            del inflight[handle]
            handle.kill()
            self._requeue_rest(batch, pending, now)
            self._record_failure(
                task,
                outcome="oom",
                error_type=info.get("type", "MemoryError"),
                message=(
                    f"worker pid {pid} hit its RSS cap "
                    f"({info.get('rss_limit_bytes')} extra bytes): "
                    f"{info.get('message', '')}"
                ),
                pid=pid,
                pending=pending,
                now=now,
                retryable=True,
                elapsed=elapsed,
            )
            return
        # status == "error": structured exception from the worker.  The
        # worker already contained it — it keeps its process (and warm
        # cache) and moves on to the next batched spec.
        error_type = info.get("type", "")
        message = info.get("message", "")
        if error_type in _CONFIG_ERRORS:
            task.attempts.append(
                AttemptRecord(
                    backend=backend,
                    attempt=task.attempt + 1,
                    worker_pid=pid,
                    outcome="error",
                    error_type=error_type,
                    error=message,
                    elapsed_s=elapsed,
                    queue_wait_s=task.queue_wait_s,
                    breaker_state=breaker.state,
                )
            )
            self._settle(
                task,
                now,
                ZenQueryFailed(
                    f"query is misconfigured ({error_type}: {message}); "
                    "not retried",
                    attempts=task.attempts,
                    label=task.spec.label,
                ),
            )
            self._advance_batch(batch, handle, inflight, now)
            return
        outcome = (
            "budget_exceeded"
            if error_type == "ZenBudgetExceeded"
            else "error"
        )
        self._record_failure(
            task,
            outcome=outcome,
            error_type=error_type,
            message=message,
            pid=pid,
            pending=pending,
            now=now,
            # Budget exhaustion and solver errors are deterministic for
            # a given rung: move down the ladder instead of retrying.
            retryable=False,
            elapsed=elapsed,
        )
        self._advance_batch(batch, handle, inflight, now)

    def _absorb_cache_info(self, handle, info) -> None:
        hit = info.get("cache_hit")
        if hit is not None:
            key = "hit" if hit else "miss"
            self._cache_agg[key] += 1
        evicted = info.get("cache_evicted", 0)
        if evicted:
            self._cache_agg["evict"] += evicted
        snapshot = info.get("cache_stats")
        if snapshot:
            self._worker_cache_snapshots[handle.index] = snapshot

    def _enforce_deadlines(self, pending, inflight) -> None:
        now = self._clock()
        for handle, batch in list(inflight.items()):
            if batch.deadline is None or now < batch.deadline:
                continue
            del inflight[handle]
            pid = handle.pid
            handle.kill()
            task = batch.current
            self._requeue_rest(batch, pending, now)
            if (
                task.deadline_at is not None
                and now >= task.deadline_at - 1e-9
            ):
                # The *client* deadline ran out mid-attempt: terminal,
                # no retry could help, no breaker charge (the substrate
                # may be healthy — the client budget is simply spent).
                self._expire_task(
                    task,
                    now,
                    where=f"mid-attempt (worker pid {pid} killed)",
                    pid=pid,
                )
                continue
            timeout = self._timeout_for(task.spec)
            self._record_failure(
                task,
                outcome="timeout",
                error_type="ZenQueryTimeout",
                message=(
                    f"hard deadline of {timeout}s exceeded; worker pid "
                    f"{pid} killed"
                ),
                pid=pid,
                pending=pending,
                now=now,
                retryable=True,
            )

    # -- outcome handling ------------------------------------------------

    def _on_worker_death(self, handle, pending, inflight, now) -> None:
        batch = inflight.pop(handle, None)
        pid = handle.pid
        exitcode = handle.kill()
        if exitcode is not None and exitcode < 0:
            detail = f"killed by signal {-exitcode}"
        else:
            detail = f"exited with status {exitcode}"
        if batch is None:
            return
        task = batch.current
        self._requeue_rest(batch, pending, now)
        self._crash_counts[task.ref_key] = (
            self._crash_counts.get(task.ref_key, 0) + 1
        )
        self._record_failure(
            task,
            outcome="crash",
            error_type="ZenWorkerCrash",
            message=f"worker pid {pid} died mid-query ({detail})",
            pid=pid,
            pending=pending,
            now=now,
            retryable=True,
        )

    def _backoff_delay(self, attempt: int) -> float:
        base = self.backoff_base_s * (BACKOFF_FACTOR ** (attempt - 1))
        return min(self.backoff_max_s, base) + self._rng.uniform(
            0.0, self.jitter_s
        )

    def _record_failure(
        self,
        task,
        *,
        outcome,
        error_type,
        message,
        pid,
        pending,
        now,
        retryable,
        elapsed=None,
    ):
        backend = task.backend
        breaker = self._breakers[backend]
        state_before = breaker.state
        breaker.record_failure(outcome)
        if breaker.state == BREAKER_OPEN and state_before != BREAKER_OPEN:
            self._obs_trigger(
                "breaker_open",
                detail=backend,
                extra={"breaker": breaker.snapshot()},
            )
        attempt_number = task.attempt + 1
        backoff = 0.0
        deadline_blocked = False
        will_retry = (
            retryable
            and outcome in _RETRYABLE
            and task.attempt < self.retries
        )
        candidate = (
            self._backoff_delay(task.attempt + 1) if will_retry else 0.0
        )
        if will_retry and task.deadline_at is not None:
            # Deadline propagation: never launch a retry that cannot
            # even *start* before the client deadline — fail now with
            # the full history instead of burning a worker slot.
            if now + candidate >= task.deadline_at:
                will_retry = False
                deadline_blocked = True
        if will_retry:
            task.attempt += 1
            backoff = candidate
            task.ready_at = now + backoff
        else:
            task.ladder_pos += 1
            task.attempt = 0
            task.ready_at = now
        duration = elapsed if elapsed is not None else now - task.submitted_at
        task.attempts.append(
            AttemptRecord(
                backend=backend,
                attempt=attempt_number,
                worker_pid=pid,
                outcome=outcome,
                error_type=error_type,
                error=message,
                backoff_s=backoff,
                elapsed_s=duration,
                queue_wait_s=task.queue_wait_s,
                breaker_state=breaker.state,
            )
        )
        self._recorder.record_attempt(
            {
                "spec": task.spec.label or task.ref_key,
                "priority": task.spec.priority,
                "outcome": outcome,
                "backend": backend,
                "attempt": attempt_number,
                "error_type": error_type,
                "pid": pid,
                "elapsed_s": round(duration, 6),
                "at": now,
            }
        )
        if TRACER.enabled:
            # Failed attempts ship no worker span tree (the reply is an
            # error, or the worker is dead); file a retroactive span so
            # retries are visible on the merged timeline.
            TRACER.record(
                f"attempt.{outcome}",
                TRACER.now_wall() - duration,
                duration,
                {
                    "backend": backend,
                    "attempt": attempt_number,
                    "error_type": error_type,
                    "backoff_s": round(backoff, 4),
                },
                parent=task.trace_parent,
            )
        if deadline_blocked:
            self._expire_task(
                task,
                now,
                where=(
                    f"after a {outcome} attempt (remaining deadline "
                    "cannot fit another retry)"
                ),
                pid=pid,
            )
            return
        pending.append(task)  # _resolve_rung finish-fails an exhausted ladder

    def _finish_failure(self, task, now) -> None:
        if task.attempts and all(
            a.outcome == "shed" for a in task.attempts
        ):
            error: ZenServiceError = ZenCircuitOpen(
                "every backend's circuit breaker is open; query "
                f"{task.spec.label or task.spec.kind!r} shed without "
                "executing",
                attempts=task.attempts,
            )
        else:
            executed = [
                a
                for a in task.attempts
                if a.outcome not in ("shed", "crash_loop")
            ]
            summary = ", ".join(
                f"{a.backend}#{a.attempt}:{a.outcome}" for a in task.attempts
            )
            error = ZenQueryFailed(
                f"query failed after {len(executed)} attempt(s) across "
                f"{len(task.ladder)} backend rung(s) [{summary}]",
                attempts=task.attempts,
                label=task.spec.label,
            )
        self._settle(task, now, error)
