"""Chaos harness: fault injection and overload storms for the engine.

Two halves:

* **fault targets** — module-level callables a ``QuerySpec`` can name
  by ``"repro.service.chaos:<name>"`` so a *worker* executes the fault
  (sleep, hard kill, allocation hoard).
  They live here, importable, for the same reason as
  ``tests/service_faults.py``: a spawned worker must be able to
  resolve them;
* **scenario drivers** — :func:`inject_worker_fault` (one fault,
  aimed at a live engine: used by fuzz campaigns) and
  :func:`run_overload` (a full arrival storm at a chosen multiple of
  pool capacity, with optional worker faults and clock-skewed
  deadlines, measuring goodput, per-priority latency percentiles,
  shed/reject fractions, and brownout recovery).

The storm driver is what the acceptance tests and
``benchmarks/bench_overload.py`` share: one code path produces both
the asserted behaviour and the recorded ``BENCH_overload.json`` rows.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (
    ZenOverloadShed,
    ZenQueryTimeout,
    ZenQueueFull,
    ZenServiceError,
)
from .engine import QueryEngine
from .spec import QuerySpec

__all__ = [
    "sleep_ms",
    "kill_worker",
    "oom_hoard",
    "OverloadScenario",
    "inject_worker_fault",
    "run_overload",
    "percentile",
]


# -- fault targets (run inside workers) ---------------------------------


def sleep_ms(ms: float) -> float:
    """The canonical storm task: hold a worker for ``ms`` milliseconds.

    Sleep, not spin — storms model I/O-shaped service time and must
    not contend for the CPU the dispatcher thread needs.
    """
    time.sleep(ms / 1000.0)
    return ms


def kill_worker(code: int = 51) -> None:
    """Die without unwinding: the parent sees EOF + exit status."""
    os._exit(code)


def oom_hoard() -> None:
    """Allocate without bound until the RSS cap raises MemoryError."""
    hoard = []
    while True:
        hoard.append(bytearray(1 << 20))


# -- single-fault injection (fuzz campaigns, targeted tests) ------------


def inject_worker_fault(
    engine: QueryEngine,
    kind: str = "kill",
    rng: Optional[random.Random] = None,
    stall_ms: float = 200.0,
) -> Tuple[str, Optional[int]]:
    """Aim one chaos fault at a live engine; returns (kind, pid).

    * ``"kill"`` — SIGKILL a random live worker (the engine must
      observe EOF, respawn, and retry/requeue whatever it ran);
    * ``"stall"`` — occupy a worker with a fire-and-forget sleep spec
      (fuzz priority, so admission may reject it under pressure —
      that rejection is itself a fine outcome for chaos);
    * ``"oom"`` — fire-and-forget allocation hoard under a small RSS
      cap, forcing an in-worker MemoryError and a worker recycle.

    Never raises on queue-full/closed engines: chaos must not crash
    the campaign that is injecting it.
    """
    rng = rng or random.Random()
    if kind == "kill":
        pids = [p for p in engine.worker_pids() if p is not None]
        if not pids:
            return ("kill", None)
        pid = rng.choice(pids)
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            return ("kill", None)
        return ("kill", pid)
    if kind == "stall":
        spec = QuerySpec(
            builder="repro.service.chaos:sleep_ms",
            kind="call",
            args=(stall_ms,),
            priority="fuzz",
            label="chaos-stall",
            timeout_s=max(1.0, stall_ms / 1000.0 * 4),
        )
    elif kind == "oom":
        spec = QuerySpec(
            builder="repro.service.chaos:oom_hoard",
            kind="call",
            priority="fuzz",
            label="chaos-oom",
            timeout_s=30.0,
            rss_limit_bytes=64 << 20,
        )
    else:
        raise ValueError(f"unknown chaos fault kind {kind!r}")
    try:
        future = engine.submit(spec, fallback=False)
        # Fire-and-forget: swallow whatever the fault becomes.
        future.add_done_callback(lambda f: f.exception())
    except (ZenQueueFull, ZenServiceError):
        return (kind, None)
    return (kind, None)


# -- overload storms ----------------------------------------------------


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 on an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


@dataclass(frozen=True)
class OverloadScenario:
    """One arrival storm against a small pool.

    ``overload`` is the arrival-rate multiple of pool capacity
    (capacity = ``pool_size / task_ms``): 1.0 is saturation, 10.0 is
    a 10x storm.  Priorities are drawn per task —
    ``interactive_fraction`` then ``batch_fraction``, remainder fuzz.
    ``fault_rate`` worker kills/stalls per submission tick and
    ``expired_fraction`` near-zero client deadlines (a clock-skewed
    queue storm: traffic that is dead on arrival) ride on top.
    """

    overload: float = 10.0
    pool_size: int = 4
    duration_s: float = 1.2
    task_ms: float = 20.0
    interactive_fraction: float = 0.08
    batch_fraction: float = 0.52
    queue_depth: int = 64
    shed_threshold: float = 0.85
    brownout_window_s: float = 0.5
    max_batch_size: int = 1
    retries: int = 1
    fault_rate: float = 0.0
    fault_kinds: Tuple[str, ...] = ("kill", "stall")
    expired_fraction: float = 0.0
    deadline_s: Optional[float] = None
    seed: int = 0
    baseline_queries: int = 30
    settle_s: float = 30.0

    def capacity_qps(self) -> float:
        return self.pool_size * 1000.0 / self.task_ms

    def arrival_qps(self) -> float:
        return self.overload * self.capacity_qps()


def _sleep_spec(scenario: OverloadScenario, priority: str, i: int) -> QuerySpec:
    return QuerySpec(
        builder="repro.service.chaos:sleep_ms",
        kind="call",
        args=(scenario.task_ms,),
        priority=priority,
        label=f"{priority}-{i}",
        timeout_s=10.0,
    )


def run_overload(
    scenario: OverloadScenario,
    engine_kwargs: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Drive one storm; returns the measured report (plain JSON data).

    Phases: (1) measure an *unloaded* interactive baseline on a warm
    pool, (2) submit the storm open-loop at ``arrival_qps`` for
    ``duration_s`` (fast-reject submissions, so a full queue shows up
    as ``rejected``, never as a hang), (3) wait for every admitted
    future, (4) watch the brownout controller recover.

    The report's per-priority sections count submitted / completed /
    shed / rejected / expired / failed and give client-side latency
    percentiles (submit→resolve, milliseconds) for completions.
    """
    kwargs: Dict[str, Any] = dict(
        pool_size=scenario.pool_size,
        retries=scenario.retries,
        max_batch_size=scenario.max_batch_size,
        max_queue_depth=scenario.queue_depth,
        shed_threshold=scenario.shed_threshold,
        brownout_window_s=scenario.brownout_window_s,
        default_timeout_s=10.0,
        # Storm crashes are injected, not systemic: keep the breaker
        # out of the way so the measured behaviour is admission's.
        breaker_threshold=10_000,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        jitter_s=0.0,
        seed=scenario.seed,
    )
    kwargs.update(engine_kwargs or {})
    rng = random.Random(scenario.seed)
    report: Dict[str, Any] = {
        "scenario": {
            "overload": scenario.overload,
            "pool_size": scenario.pool_size,
            "duration_s": scenario.duration_s,
            "task_ms": scenario.task_ms,
            "queue_depth": scenario.queue_depth,
            "arrival_qps": round(scenario.arrival_qps(), 1),
            "capacity_qps": round(scenario.capacity_qps(), 1),
            "fault_rate": scenario.fault_rate,
            "expired_fraction": scenario.expired_fraction,
            "seed": scenario.seed,
        }
    }
    lock = threading.Lock()
    resolved: List[Tuple[str, float, float]] = []  # (priority, t0, t1)

    with QueryEngine(**kwargs) as engine:
        # -- phase 1: unloaded interactive baseline (warm pool) ---------
        for i in range(scenario.pool_size):
            engine.run(_sleep_spec(scenario, "interactive", -1 - i))
        baseline: List[float] = []
        for i in range(scenario.baseline_queries):
            t0 = time.monotonic()
            engine.run(_sleep_spec(scenario, "interactive", -100 - i))
            baseline.append((time.monotonic() - t0) * 1000.0)
        baseline_p99 = percentile(baseline, 0.99)

        # -- phase 2: the storm ----------------------------------------
        counts = {
            p: {
                "submitted": 0,
                "rejected": 0,
                "completed": 0,
                "shed": 0,
                "expired": 0,
                "failed": 0,
            }
            for p in ("interactive", "batch", "fuzz")
        }
        futures = []
        brownout_seen = False
        rate = scenario.arrival_qps()
        start = time.monotonic()
        submitted = 0
        while True:
            now = time.monotonic()
            elapsed = now - start
            if elapsed >= scenario.duration_s:
                break
            due = int(rate * elapsed) - submitted
            for _ in range(max(0, due)):
                submitted += 1
                draw = rng.random()
                if draw < scenario.interactive_fraction:
                    priority = "interactive"
                elif draw < (
                    scenario.interactive_fraction + scenario.batch_fraction
                ):
                    priority = "batch"
                else:
                    priority = "fuzz"
                spec = _sleep_spec(scenario, priority, submitted)
                if (
                    scenario.expired_fraction
                    and priority != "interactive"
                    and rng.random() < scenario.expired_fraction
                ):
                    # Clock-skewed storm traffic: dead on arrival.
                    spec = replace(
                        spec,
                        deadline_s=0.001,
                        label=f"skewed-{submitted}",
                    )
                elif scenario.deadline_s is not None and priority != (
                    "interactive"
                ):
                    spec = replace(spec, deadline_s=scenario.deadline_s)
                counts[priority]["submitted"] += 1
                try:
                    future = engine.submit(spec, fallback=False)
                except ZenQueueFull:
                    counts[priority]["rejected"] += 1
                    continue
                t_submit = time.monotonic()

                def _done(f, priority=priority, t0=t_submit):
                    with lock:
                        resolved.append((priority, t0, time.monotonic()))

                future.add_done_callback(_done)
                futures.append((priority, future))
            if scenario.fault_rate and rng.random() < scenario.fault_rate:
                inject_worker_fault(
                    engine, rng.choice(list(scenario.fault_kinds)), rng
                )
            if engine.mode == "brownout":
                brownout_seen = True
            time.sleep(0.005)
        storm_end = time.monotonic()

        # -- phase 3: drain --------------------------------------------
        wait_futures(
            [f for _, f in futures], timeout=scenario.settle_s
        )
        for priority, future in futures:
            if not future.done():
                counts[priority]["failed"] += 1
                future.cancel()
                continue
            error = future.exception()
            if error is None:
                counts[priority]["completed"] += 1
            elif isinstance(error, ZenOverloadShed):
                counts[priority]["shed"] += 1
            elif isinstance(error, ZenQueryTimeout):
                counts[priority]["expired"] += 1
            else:
                counts[priority]["failed"] += 1
        drained = time.monotonic()

        # -- phase 4: recovery -----------------------------------------
        recovery_s = None
        recovery_limit = scenario.brownout_window_s * 4 + 1.0
        while time.monotonic() - drained < recovery_limit:
            if engine.mode == "normal":
                recovery_s = time.monotonic() - storm_end
                break
            time.sleep(0.02)

        overload_stats = engine.overload_stats()
        restarts = engine.total_restarts()

    with lock:
        latencies: Dict[str, List[float]] = {
            "interactive": [],
            "batch": [],
            "fuzz": [],
        }
        for priority, t0, t1 in resolved:
            latencies[priority].append((t1 - t0) * 1000.0)

    total_ok = sum(c["completed"] for c in counts.values())
    total_admitted = sum(
        c["submitted"] - c["rejected"] for c in counts.values()
    )
    total_shed = sum(c["shed"] for c in counts.values())
    wall = max(drained - start, scenario.duration_s)
    per_priority = {}
    for priority, c in counts.items():
        samples = latencies[priority]
        per_priority[priority] = {
            **c,
            "p50_ms": round(percentile(samples, 0.50), 2),
            "p95_ms": round(percentile(samples, 0.95), 2),
            "p99_ms": round(percentile(samples, 0.99), 2),
        }
    report.update(
        {
            "baseline_p99_ms": round(baseline_p99, 2),
            "priorities": per_priority,
            "goodput_qps": round(total_ok / wall, 1),
            "shed_fraction": round(
                total_shed / total_admitted if total_admitted else 0.0, 4
            ),
            "reject_fraction": round(
                sum(c["rejected"] for c in counts.values())
                / max(1, sum(c["submitted"] for c in counts.values())),
                4,
            ),
            "interactive_p99_ratio": round(
                per_priority["interactive"]["p99_ms"] / baseline_p99
                if baseline_p99 and latencies["interactive"]
                else 0.0,
                2,
            ),
            "brownout_entered": brownout_seen
            or overload_stats["brownout"]["transitions"] != [],
            "recovered": recovery_s is not None,
            "recovery_s": (
                round(recovery_s, 3) if recovery_s is not None else None
            ),
            "worker_restarts": restarts,
            "shed_overload": overload_stats["shed_overload"],
            "deadline_expired": overload_stats["deadline_expired"],
        }
    )
    return report
