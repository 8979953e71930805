"""Subprocess worker: the isolated executor of query batches.

The worker side is deliberately dumb: receive a batch of specs over a
pipe, run them in order, stream one reply per spec back.  All policy
(retries, backoff, breakers, hard-deadline kills, sticky routing)
lives in the parent engine; all *state that needs an address space of
its own* lives here:

* **the warm model cache** — each worker keeps a process-global
  :class:`~repro.service.cache.ModelCache` of resolved builder refs
  and compiled artifacts, so repeated queries against the same model
  skip the resolve/rebuild that dominates tiny solves; a respawned
  worker always starts cold;
* **RSS cap** — before a task with ``rss_limit_bytes``, the worker
  lowers its ``RLIMIT_AS`` soft limit to (current VM size + cap), so a
  BDD blowup or runaway allocation raises MemoryError inside the
  worker instead of invoking the machine's OOM killer.  The limit is
  restored afterwards; an OOM reply tells the parent to recycle the
  worker anyway (allocator state after a MemoryError is suspect);
* **crash containment** — ``os._exit``, aborts in native code, and
  signal kills only take down this process; the parent observes EOF on
  the pipe and the exit status.

Wire protocol (parent → worker):

* ``("batch", seq, (spec, ...), (deadline_at, ...))`` — run the
  specs in order.  ``deadline_at`` is the spec's absolute *client*
  deadline on the shared ``time.monotonic`` clock (``CLOCK_MONOTONIC``
  is system-wide on Linux, so parent-stamped deadlines are directly
  comparable here), or None.  A spec whose deadline already passed
  while queued behind its batch-mates is skipped with an ``"expired"``
  reply instead of burning worker time on an answer nobody waits for;
* ``None`` — shut down.

Worker → parent: one ``(seq, index, status, info)`` tuple per spec,
in submission order, so a single request round-trip carries N specs
and streams N results back (the parent keeps per-spec hard deadlines
by re-arming its kill timer as each reply lands).

Replies are always plain picklable data.  Exceptions are flattened to
``{"type", "message", "reason", "stats"}`` dictionaries — shipping
exception *objects* across the boundary would reintroduce arbitrary
unpickling of solver state into the parent.  Successful replies carry
``cache_hit`` plus the cache's counter snapshot so the parent can
aggregate hit rates without another round-trip.
"""

from __future__ import annotations

import gc
import os
import sys
import time
import traceback
from typing import Any, Dict, Optional, Tuple

from ..telemetry.spans import TRACER
from .cache import ModelCache
from .spec import QuerySpec, run_spec

__all__ = ["worker_main", "execute_task", "describe_exception"]

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platform
    resource = None  # type: ignore[assignment]

_PAGE_SIZE = 4096

#: Default capacity of a worker's warm model cache (entries, LRU).
DEFAULT_CACHE_CAPACITY = 32


def _current_vm_bytes() -> Optional[int]:
    """Current virtual memory size of this process, if knowable.

    Reads ``/proc/self/statm`` (Linux).  ``RLIMIT_AS`` caps *address
    space*, which a Python process consumes hundreds of MB of before
    any query runs, so per-query caps are expressed as headroom above
    the current usage rather than as absolute values.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[0]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return None


def _install_rss_limit(extra_bytes: int) -> Optional[Tuple[int, int]]:
    """Cap address space at (current usage + extra_bytes).

    Returns the previous ``RLIMIT_AS`` for restoration, or None when
    the platform cannot enforce the cap (the query then runs
    unlimited; the parent's hard timeout still bounds it).
    """
    if resource is None:
        return None
    current = _current_vm_bytes()
    if current is None:
        return None
    previous = resource.getrlimit(resource.RLIMIT_AS)
    soft = current + extra_bytes
    hard = previous[1]
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    except (ValueError, OSError):
        return None
    return previous


def _restore_rss_limit(previous: Optional[Tuple[int, int]]) -> None:
    if previous is None or resource is None:
        return
    try:
        resource.setrlimit(resource.RLIMIT_AS, previous)
    except (ValueError, OSError):  # pragma: no cover - kernel refusal
        pass


def _safe_text(value: Any) -> str:
    """``str`` that cannot itself raise (hostile __str__/__repr__)."""
    try:
        return str(value)
    except Exception:
        try:
            return repr(value)
        except Exception:
            return f"<unprintable {type(value).__name__}>"


def describe_exception(error: BaseException) -> Dict[str, Any]:
    """Flatten an exception into the picklable reply dictionary.

    Every field is built defensively: an exception whose ``__str__``
    raises, or whose ``stats`` attribute is not a mapping, still
    produces a structured reply instead of a second, masking failure
    inside the error path.
    """
    try:
        stats = dict(getattr(error, "stats", {}) or {})
    except Exception:
        stats = {}
    try:
        tb = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )[-4000:]
    except Exception:
        tb = ""
    return {
        "type": type(error).__name__,
        "message": _safe_text(error),
        "reason": _safe_text(getattr(error, "reason", "")) if getattr(
            error, "reason", ""
        ) else "",
        "stats": stats,
        "traceback": tb,
    }


def execute_task(
    spec: QuerySpec, cache: Optional[ModelCache] = None
) -> Tuple[str, Dict[str, Any]]:
    """Run one spec, translating every outcome to a (status, info) pair.

    Statuses: ``"ok"`` (info = run_spec payload), ``"oom"`` (the RSS
    cap tripped), ``"error"`` (info = flattened exception).  Every
    info dict carries ``elapsed_s`` — the worker-side wall clock of
    the attempt, free of pipe and scheduling skew.
    """
    previous = None
    started = time.perf_counter()
    try:
        if spec.rss_limit_bytes is not None:
            previous = _install_rss_limit(spec.rss_limit_bytes)
        info = run_spec(spec, cache)
        info["elapsed_s"] = time.perf_counter() - started
        return "ok", info
    except MemoryError as error:
        # Free headroom before building the reply: drop the limit
        # first, then collect whatever the unwound query left behind.
        _restore_rss_limit(previous)
        previous = None
        gc.collect()
        info = describe_exception(error)
        info["rss_limit_bytes"] = spec.rss_limit_bytes
        info["elapsed_s"] = time.perf_counter() - started
        return "oom", info
    except BaseException as error:  # noqa: BLE001 - boundary translation
        info = describe_exception(error)
        info["elapsed_s"] = time.perf_counter() - started
        return "error", info
    finally:
        _restore_rss_limit(previous)


def _degraded_reply(status: str, info: Any, send_error: Exception) -> Dict[str, Any]:
    """A guaranteed-picklable stand-in for a reply that failed to pickle.

    Failure replies keep their identity: the original exception's type,
    repr'd message, and traceback survive as plain strings (only the
    unpicklable payload — typically a ``stats`` dict holding live
    objects — is dropped), so the parent's attempt records and any
    fuzz artifact stay triageable.  Success replies degrade to the
    ``unpicklable-answer`` error the engine already understands.
    """
    if status in ("error", "oom") and isinstance(info, dict):
        original_type = _safe_text(info.get("type", "")) or "ZenServiceError"
        return {
            "type": original_type,
            "message": (
                f"{original_type}: {_safe_text(info.get('message', ''))!r} "
                f"(original worker reply failed to pickle: "
                f"{type(send_error).__name__}: {_safe_text(send_error)})"
            ),
            "reason": "unpicklable-error",
            "stats": {},
            "traceback": _safe_text(info.get("traceback", ""))[-4000:],
        }
    return {
        "type": "ZenServiceError",
        "message": "worker could not pickle the query "
        f"answer (pid {os.getpid()})",
        "reason": "unpicklable-answer",
        "stats": {},
        "traceback": "",
    }


def _send_reply(conn, seq: int, index: int, status: str, info) -> bool:
    """Ship one reply; degrade unpicklable payloads to structured errors.

    ``Connection.send`` pickles before writing, so a pickling failure
    leaves the pipe clean — the degraded reply below is the *only*
    bytes the parent sees for this spec, never a truncated frame.
    """
    try:
        conn.send((seq, index, status, info))
        return True
    except Exception as send_error:
        try:
            conn.send(
                (seq, index, "error", _degraded_reply(status, info, send_error))
            )
            return True
        except Exception:
            return False


def worker_main(conn, config: Optional[Dict[str, Any]] = None) -> None:
    """Entry point of a pool worker process.

    Loops on the pipe until EOF or a ``None`` shutdown sentinel.  With
    the ``spawn`` start method the parent passes its ``sys.path`` in
    ``config`` so ``module:attribute`` builder references resolve in
    the fresh interpreter.
    """
    config = config or {}
    for entry in reversed(config.get("sys_path", [])):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    # With the fork start method this process inherits the parent's
    # tracer — enabled flag and the forking thread's live span stack
    # included.  Neither belongs to this worker's timeline: tracing is
    # re-enabled per task by run_spec when the spec asks for it.
    TRACER.hard_reset()
    cache = ModelCache(
        capacity=config.get("cache_capacity", DEFAULT_CACHE_CAPACITY)
    )
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        if message[0] != "batch":  # pragma: no cover - protocol guard
            continue
        _, seq, specs, deadlines = message
        for index, spec in enumerate(specs):
            deadline_at = (
                deadlines[index] if index < len(deadlines) else None
            )
            if deadline_at is not None and time.monotonic() >= deadline_at:
                expired = {
                    "type": "ZenQueryTimeout",
                    "message": (
                        "client deadline expired while the spec waited "
                        "behind its batch-mates in worker "
                        f"{os.getpid()}"
                    ),
                    "reason": "deadline",
                    "stats": {},
                    "traceback": "",
                    "elapsed_s": 0.0,
                }
                if not _send_reply(conn, seq, index, "expired", expired):
                    return
                continue
            evictions_before = cache.evictions
            status, info = execute_task(spec, cache)
            if status == "ok":
                info["cache_evicted"] = cache.evictions - evictions_before
                info["cache_stats"] = cache.snapshot()
            if not _send_reply(conn, seq, index, status, info):
                return
