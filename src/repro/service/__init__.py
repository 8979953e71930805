"""Fault-isolated parallel query execution (the service layer).

PR 2's budgets are *cooperative*: they rely on the solver reaching a
checkpoint.  This package adds the execution layer that does not —
queries run in subprocess workers with kill-based wall-clock limits
and ``RLIMIT_AS`` memory caps, crashed workers are respawned, flaky
outcomes are retried with exponential backoff + jitter, repeatedly
failing backends are shed by per-backend circuit breakers onto the
fallback ladder, and a differential oracle cross-checks the SAT and
BDD backends against each other.

PR 5 adds the warm dispatch path: workers keep an LRU
:class:`ModelCache` of resolved builders and compiled artifacts
(epoch-invalidated by the parent), the scheduler routes repeat refs to
their warm worker (sticky routing), one pipe round-trip batches many
specs, and :meth:`QueryEngine.submit` / :meth:`QueryEngine.gather`
plus the async ``run_async``/``run_many_async`` keep thousands of
queries in flight from one caller.

PR 7 adds overload protection: bounded per-priority admission
(:class:`AdmissionController`, ``ZenQueueFull`` backpressure),
utilization-triggered load shedding (``shed_overload`` outcomes),
client-deadline propagation (``QuerySpec.deadline_s``), hysteretic
brownout degradation (:class:`BrownoutController`), a deterministic
:meth:`QueryEngine.shutdown` drain, and the :mod:`repro.service.chaos`
fault-injection harness.

Public surface:

* :class:`QuerySpec` — picklable description of one query;
* :class:`QueryEngine` — the worker pool / scheduler;
* :class:`ServiceResult` / :class:`AttemptRecord` — answers with their
  full execution history;
* :class:`CircuitBreaker` / :class:`BreakerTransition` — the
  per-backend breaker state machine;
* :class:`ModelCache` / :class:`CacheEntry` / :func:`ref_cache_key` —
  the worker-side compiled-model cache and its keying;
* :func:`run_spec` — in-process execution of a spec (dry runs, and
  what the worker itself calls).
"""

from .admission import (
    BROWNOUT,
    NORMAL,
    PRIORITIES,
    AdmissionController,
    BrownoutController,
)
from .breaker import CLOSED, HALF_OPEN, OPEN, BreakerTransition, CircuitBreaker
from .cache import CacheEntry, ModelCache, ref_cache_key
from .engine import AttemptRecord, QueryEngine, ServiceResult
from .spec import QuerySpec, clamp_spec_deadline, resolve_ref, run_spec

__all__ = [
    "QueryEngine",
    "QuerySpec",
    "ServiceResult",
    "AttemptRecord",
    "CircuitBreaker",
    "BreakerTransition",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "ModelCache",
    "CacheEntry",
    "ref_cache_key",
    "resolve_ref",
    "run_spec",
    "AdmissionController",
    "BrownoutController",
    "PRIORITIES",
    "NORMAL",
    "BROWNOUT",
    "clamp_spec_deadline",
]
