"""Integration tests for overload protection and graceful degradation.

Everything here runs a real :class:`QueryEngine` with real worker
subprocesses — client deadlines are parent-stamped ``time.monotonic``
values and CLOCK_MONOTONIC is system-wide on Linux, so injected fake
clocks would not be comparable in the workers (the one test that steps
an injected clock keeps it ahead of the real one).  Timing assertions
use generous margins: the CI box may have a single core.

The fast scenarios run in tier-1.  The full storm scenarios (10x
overload, worker-kill storms, clock-skewed bursts) carry the ``chaos``
marker and run in the dedicated CI chaos job.
"""

import time

import pytest

from repro.errors import (
    ZenOverloadShed,
    ZenQueryFailed,
    ZenQueryTimeout,
    ZenQueueFull,
    ZenServiceError,
)
from repro.obs.recorder import FlightRecorder
from repro.service import QueryEngine, QuerySpec
from repro.service.chaos import (
    OverloadScenario,
    inject_worker_fault,
    run_overload,
)
from tests.test_admission import FakeClock

SLEEP = "repro.service.chaos:sleep_ms"
CRASH = "tests.service_faults:crash_model"


def sleep_spec(ms, priority="interactive", **kwargs):
    kwargs.setdefault("timeout_s", 10.0)
    return QuerySpec(
        builder=SLEEP, kind="call", args=(ms,), priority=priority, **kwargs
    )


def wait_for(predicate, timeout_s=5.0, interval_s=0.01):
    """Poll until ``predicate()`` or fail the test after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError(f"condition not reached within {timeout_s}s")


# -- admission backpressure ---------------------------------------------


class TestBackpressure:
    def test_full_queue_fast_rejects_not_hangs(self):
        with QueryEngine(pool_size=1, max_queue_depth=2) as engine:
            first = engine.submit(sleep_spec(400))
            second = engine.submit(sleep_spec(5))
            started = time.monotonic()
            with pytest.raises(ZenQueueFull) as excinfo:
                engine.submit(sleep_spec(5))
            assert time.monotonic() - started < 0.2
            assert excinfo.value.priority == "interactive"
            assert excinfo.value.limit == 2
            assert first.result(timeout=10).answer == 400
            assert second.result(timeout=10).answer == 5

    def test_lower_priorities_rejected_before_interactive(self):
        with QueryEngine(
            pool_size=1, max_queue_depth=4, shed_threshold=0.75
        ) as engine:
            futures = [engine.submit(sleep_spec(200)) for _ in range(3)]
            # Depth 3 = the batch limit (0.75 * 4): batch is refused
            # while interactive still has a reserved slot.
            with pytest.raises(ZenQueueFull):
                engine.submit(sleep_spec(5, priority="batch"))
            futures.append(engine.submit(sleep_spec(5)))
            for future in futures:
                future.result(timeout=10)
            stats = engine.overload_stats()
            assert stats["admission"]["rejected"]["batch"] == 1
            assert stats["admission"]["rejected"]["interactive"] == 0

    def test_submit_wait_blocks_until_slot_frees(self):
        with QueryEngine(pool_size=1, max_queue_depth=1) as engine:
            first = engine.submit(sleep_spec(150))
            started = time.monotonic()
            second = engine.submit(sleep_spec(5), wait=True)
            waited = time.monotonic() - started
            assert waited >= 0.05  # actually blocked for the slot
            assert second.result(timeout=10).answer == 5
            assert first.result(timeout=10).answer == 150

    def test_submit_wait_timeout_raises_queue_full(self):
        with QueryEngine(pool_size=1, max_queue_depth=1) as engine:
            future = engine.submit(sleep_spec(500))
            with pytest.raises(ZenQueueFull) as excinfo:
                engine.submit(sleep_spec(5), wait=True, wait_timeout_s=0.05)
            assert "waited" in str(excinfo.value)
            future.result(timeout=10)


# -- load shedding ------------------------------------------------------


class TestLoadShedding:
    def test_sheds_only_low_priority_with_structured_outcome(self):
        with QueryEngine(
            pool_size=1,
            max_queue_depth=10,
            shed_threshold=0.6,
            max_batch_size=1,
        ) as engine:
            blocker = engine.submit(sleep_spec(300))
            batch = [
                engine.submit(sleep_spec(20, priority="batch"))
                for _ in range(5)
            ]
            # Depth 6 of 10 crosses the 0.6 shed threshold: the
            # dispatcher drops the newest batch task back under it.
            outcomes = []
            for future in batch:
                try:
                    future.result(timeout=10)
                    outcomes.append("ok")
                except ZenOverloadShed as error:
                    outcomes.append("shed")
                    assert error.priority == "batch"
                    assert error.attempts[-1].outcome == "shed_overload"
                    assert error.attempts[-1].worker_pid is None
            assert outcomes.count("shed") >= 1
            assert outcomes.count("ok") >= 1
            assert blocker.result(timeout=10).answer == 300
            stats = engine.overload_stats()
            assert stats["shed_overload"] == outcomes.count("shed")

    def test_interactive_never_shed(self):
        with QueryEngine(
            pool_size=1,
            max_queue_depth=6,
            shed_threshold=0.5,
            max_batch_size=1,
        ) as engine:
            futures = [engine.submit(sleep_spec(30)) for _ in range(6)]
            for future in futures:
                assert future.result(timeout=10).answer == 30
            assert engine.overload_stats()["shed_overload"] == 0

    def test_shed_enters_brownout(self):
        with QueryEngine(
            pool_size=1,
            max_queue_depth=6,
            shed_threshold=0.5,
            brownout_window_s=0.2,
            max_batch_size=1,
        ) as engine:
            blocker = engine.submit(sleep_spec(250))
            # batch admits up to depth 3 here (0.5 * 6); with the
            # blocker that crosses the 0.5 shed threshold.
            noise = [
                engine.submit(sleep_spec(10, priority="batch"))
                for _ in range(2)
            ]
            wait_for(lambda: engine.overload_stats()["shed_overload"] >= 1)
            assert engine.mode == "brownout"
            blocker.result(timeout=10)
            for future in noise:
                try:
                    future.result(timeout=10)
                except ZenOverloadShed:
                    pass
            # Hysteretic recovery: calm for a full window flips back.
            wait_for(lambda: engine.mode == "normal", timeout_s=3.0)
            transitions = engine.overload_stats()["brownout"]["transitions"]
            assert [t["to"] for t in transitions[:2]] == [
                "brownout",
                "normal",
            ]


# -- deadline propagation -----------------------------------------------


class TestDeadlinePropagation:
    def test_expired_in_queue_without_burning_a_worker(self):
        with QueryEngine(pool_size=1, max_batch_size=1) as engine:
            blocker = engine.submit(sleep_spec(300))
            started = time.monotonic()
            doomed = engine.submit(sleep_spec(5, deadline_s=0.05))
            with pytest.raises(ZenQueryTimeout) as excinfo:
                doomed.result(timeout=10)
            elapsed = time.monotonic() - started
            # Failed at its 50ms deadline, not after the 300ms blocker.
            assert elapsed < 0.25
            assert "in queue" in str(excinfo.value)
            record = excinfo.value.attempts[-1]
            assert record.outcome == "deadline_expired"
            assert record.worker_pid is None
            blocker.result(timeout=10)
            assert engine.overload_stats()["deadline_expired"] == 1

    def test_expired_behind_batch_mates_in_worker(self):
        with QueryEngine(pool_size=1, max_batch_size=4) as engine:
            # Warm the (single) worker so spawn cost cannot delay the
            # batch launch past the doomed spec's deadline — this test
            # needs the expiry to happen *inside* the worker, not in
            # the parent's queue.
            engine.run(sleep_spec(1))
            blocker = engine.submit(sleep_spec(100))
            time.sleep(0.02)  # let the blocker dispatch alone
            slow = engine.submit(sleep_spec(400))
            doomed = engine.submit(sleep_spec(5, deadline_s=0.25))
            with pytest.raises(ZenQueryTimeout) as excinfo:
                doomed.result(timeout=10)
            assert "batch-mates" in str(excinfo.value)
            record = excinfo.value.attempts[-1]
            assert record.outcome == "deadline_expired"
            # The worker skipped it: near-zero execution burned.
            assert record.elapsed_s < 0.05
            blocker.result(timeout=10)
            slow.result(timeout=10)

    def test_deadline_bounds_total_latency(self):
        with QueryEngine(pool_size=1, max_batch_size=1) as engine:
            started = time.monotonic()
            with pytest.raises(ZenQueryTimeout):
                engine.run(sleep_spec(2000, deadline_s=0.2))
            assert time.monotonic() - started < 1.5

    def test_no_retry_launched_past_the_deadline(self):
        # The engine's clock moves only when the test moves it, so which
        # terminator fires does not depend on how fast this host respawns
        # a worker.  It runs an hour ahead of CLOCK_MONOTONIC because the
        # worker compares the shipped deadline with its own real clock.
        clock = FakeClock(time.monotonic() + 3600.0)
        with QueryEngine(
            pool_size=1,
            retries=5,
            backoff_base_s=0.2,
            jitter_s=0.0,
            max_batch_size=1,
            clock=clock,
            recorder=FlightRecorder(),  # not the process-wide one
        ) as engine:
            spec = QuerySpec(builder=CRASH, deadline_s=0.25, timeout_s=5.0)
            future = engine.submit(spec)
            # First crash at +0 s: its 0.2 s backoff ends inside the
            # 0.25 s deadline, so one retry is scheduled.
            wait_for(
                lambda: len(engine.recorder.rings()["attempts"]) == 1,
                timeout_s=30.0,
            )
            clock.advance(0.21)
            # The retry crashes at +0.21 s; the next backoff (0.4 s)
            # cannot start before the deadline, so none is launched.
            with pytest.raises(ZenQueryTimeout) as excinfo:
                future.result(timeout=30)
            attempts = excinfo.value.attempts
            assert [a.outcome for a in attempts] == [
                "crash",
                "crash",
                "deadline_expired",
            ]
            assert "retry" in attempts[-1].error

    def test_deadline_survives_success_untouched(self):
        with QueryEngine(pool_size=1) as engine:
            result = engine.run(sleep_spec(10, deadline_s=5.0))
            assert result.answer == 10
            assert result.attempts[-1].outcome == "ok"


# -- removed mechanisms, and the surface the frozen benchmark reads -----


class TestEngineSurface:
    def test_hedging_and_race_mode_are_removed_not_ignored(self):
        with pytest.raises(TypeError):
            QueryEngine(hedge=True)
        with pytest.raises(TypeError):
            QuerySpec(builder="m:b", hedge=True)
        with QueryEngine(pool_size=1) as engine:
            with pytest.raises(TypeError):
                engine.run_differential(sleep_spec(1), race=True)

    def test_stats_surface_read_by_the_e2e_benchmark(self):
        """``benchmarks/e2e/workloads.py`` (frozen) reads exactly these
        names after every engine lap; renaming one breaks the benchmark."""
        with QueryEngine(
            pool_size=1,
            max_queue_depth=6,
            shed_threshold=0.5,
            max_batch_size=1,
        ) as engine:
            blocker = engine.submit(sleep_spec(100))
            noise = [
                engine.submit(sleep_spec(5, priority="batch"))
                for _ in range(2)
            ]
            wait_for(lambda: engine.overload_stats()["shed_overload"] >= 1)
            blocker.result(timeout=10)
            for future in noise:
                try:
                    future.result(timeout=10)
                except ZenOverloadShed:
                    pass
            dispatch = engine.dispatch_stats()
            assert dispatch["batches"] >= 1
            assert dispatch["mean_batch_size"] == 1.0
            assert dispatch["sticky_hits"] + dispatch["steals"] >= 1
            overload = engine.overload_stats()
            assert overload["shed_overload"] >= 1
            assert overload["hedge"]["launched"] == 0
            assert overload["brownout"]["transitions"][0]["to"] == "brownout"
            assert engine.cache_stats()["hit_rate"] == 0.0
            assert engine.total_restarts() == 0
            assert len(engine.worker_pids()) == 1


# -- satellite: Future.cancel before dispatch ---------------------------


class TestCancellation:
    def test_cancel_before_dispatch_is_honored(self):
        with QueryEngine(pool_size=1, max_batch_size=1) as engine:
            blocker = engine.submit(sleep_spec(250))
            queued = engine.submit(sleep_spec(5))
            assert queued.cancel() is True
            assert queued.cancelled()
            wait_for(
                lambda: engine.overload_stats()["cancelled"] == 1,
                timeout_s=5.0,
            )
            # The engine stays healthy and the slot was released.
            assert blocker.result(timeout=10).answer == 250
            assert engine.run(sleep_spec(5)).answer == 5
            assert engine.overload_stats()["queue_depth"] == 0

    def test_cancel_after_dispatch_is_refused(self):
        with QueryEngine(pool_size=1, max_batch_size=1) as engine:
            running = engine.submit(sleep_spec(100))
            wait_for(lambda: running.running() or running.done())
            assert running.cancel() is False
            assert running.result(timeout=10).answer == 100


# -- satellite: deterministic shutdown drain ----------------------------


class TestShutdownDrain:
    def test_inflight_completes_and_queued_fails_structured(self):
        engine = QueryEngine(pool_size=1, max_batch_size=1)
        try:
            inflight = engine.submit(sleep_spec(200))
            wait_for(lambda: inflight.running() or inflight.done())
            queued = [engine.submit(sleep_spec(5)) for _ in range(3)]
            engine.shutdown(timeout_s=10.0)
            assert inflight.result(timeout=1).answer == 200
            for future in queued:
                with pytest.raises(ZenQueryFailed) as excinfo:
                    future.result(timeout=1)
                assert "drain" in str(excinfo.value)
                record = excinfo.value.attempts[-1]
                assert record.outcome == "engine_shutdown"
            assert engine.overload_stats()["engine_shutdown"] == 3
        finally:
            engine.close()

    def test_submit_after_shutdown_raises(self):
        engine = QueryEngine(pool_size=1)
        engine.shutdown(timeout_s=10.0)
        with pytest.raises(ZenServiceError):
            engine.submit(sleep_spec(5))

    def test_shutdown_idempotent_and_fast_when_idle(self):
        engine = QueryEngine(pool_size=1)
        engine.run(sleep_spec(5))
        started = time.monotonic()
        engine.shutdown(timeout_s=10.0)
        engine.shutdown(timeout_s=10.0)
        assert time.monotonic() - started < 5.0


# -- satellite: queue-wait accounting under burst arrival ----------------


class TestQueueWaitAccounting:
    def test_burst_arrival_queue_wait_is_monotone_and_consistent(self):
        count = 110
        with QueryEngine(
            pool_size=1, max_batch_size=4, max_queue_depth=500
        ) as engine:
            submit_times = []
            futures = []
            for i in range(count):
                submit_times.append(time.monotonic())
                futures.append(
                    engine.submit(sleep_spec(5, label=f"burst-{i}"))
                )
            results = [f.result(timeout=60) for f in futures]
            done_at = time.monotonic()
        waits = [r.queue_wait_s for r in results]
        for i, result in enumerate(results):
            assert result.answer == 5
            assert result.queue_wait_s >= 0.0
            record = result.attempts[-1]
            assert record.queue_wait_s >= 0.0
            # One attempt each: the total equals the attempt's wait.
            assert result.queue_wait_s == pytest.approx(
                record.queue_wait_s, abs=1e-9
            )
            # Consistency with client-observed timing: a task cannot
            # have waited longer than its total wall clock.
            wall = done_at - submit_times[i]
            assert result.queue_wait_s <= wall + 0.05
        # FIFO within one priority class: later submissions wait at
        # least as long, modulo batching granularity and clock noise.
        tolerance = 0.08
        violations = sum(
            1
            for earlier, later in zip(waits, waits[1:])
            if later < earlier - tolerance
        )
        assert violations == 0
        # The burst really queued: the tail waited much longer than
        # the head.
        assert waits[-1] > waits[0] + 0.1


# -- chaos: full storm scenarios (CI chaos job) --------------------------


@pytest.mark.chaos
class TestOverloadStorms:
    def test_acceptance_10x_overload_with_pool_of_4(self):
        scenario = OverloadScenario(
            overload=10.0,
            pool_size=4,
            duration_s=1.2,
            task_ms=40.0,
            interactive_fraction=0.05,
            batch_fraction=0.55,
            queue_depth=64,
            brownout_window_s=0.5,
            seed=7,
        )
        report = run_overload(scenario)
        interactive = report["priorities"]["interactive"]
        # Interactive is never shed and never refused admission.
        assert interactive["shed"] == 0
        assert interactive["rejected"] == 0
        assert interactive["failed"] == 0
        assert interactive["completed"] == interactive["submitted"]
        # Overload pressure lands on batch/fuzz as structured
        # rejections and sheds — never as hangs.
        dropped = sum(
            report["priorities"][p]["rejected"]
            + report["priorities"][p]["shed"]
            for p in ("batch", "fuzz")
        )
        assert dropped > 0
        assert report["reject_fraction"] > 0.0
        for priority in ("interactive", "batch", "fuzz"):
            assert report["priorities"][priority]["failed"] == 0
        # Interactive p99 stays within 3x of the unloaded baseline.
        assert 0 < report["interactive_p99_ratio"] <= 3.0
        # The engine degraded and then recovered within one
        # hysteresis window (plus measurement slack) after the burst.
        assert report["brownout_entered"]
        assert report["recovered"]
        assert report["recovery_s"] is not None
        # Goodput stayed near capacity: overload cost admission, not
        # throughput collapse.
        assert report["goodput_qps"] > 0.5 * scenario.capacity_qps()

    def test_storm_survives_worker_kills(self):
        # fault_rate is per 5ms submission tick: 0.06 ≈ a dozen
        # SIGKILLs over the storm — heavy churn for a pool of 2, but
        # low enough that completions don't hinge on respawn timing
        # on a loaded single-core runner (0.25 starved them to zero).
        scenario = OverloadScenario(
            overload=3.0,
            pool_size=2,
            duration_s=1.0,
            task_ms=25.0,
            queue_depth=32,
            fault_rate=0.06,
            fault_kinds=("kill",),
            retries=2,
            seed=11,
        )
        report = run_overload(scenario)
        assert report["worker_restarts"] >= 1
        total_ok = sum(
            report["priorities"][p]["completed"]
            for p in ("interactive", "batch", "fuzz")
        )
        assert total_ok > 0
        assert report["recovered"]

    def test_clock_skewed_queue_storm_expires_cheaply(self):
        scenario = OverloadScenario(
            overload=4.0,
            pool_size=2,
            duration_s=0.8,
            task_ms=25.0,
            queue_depth=32,
            expired_fraction=0.6,
            seed=3,
        )
        report = run_overload(scenario)
        assert report["deadline_expired"] > 0
        expired = sum(
            report["priorities"][p]["expired"] for p in ("batch", "fuzz")
        )
        assert expired > 0
        assert report["priorities"]["interactive"]["expired"] == 0
        for priority in ("interactive", "batch", "fuzz"):
            assert report["priorities"][priority]["failed"] == 0

    def test_inject_worker_fault_kinds(self):
        with QueryEngine(pool_size=2, max_batch_size=1) as engine:
            engine.run(sleep_spec(5))  # spawn the pool
            kind, pid = inject_worker_fault(engine, "kill")
            assert kind == "kill" and pid is not None
            inject_worker_fault(engine, "stall", stall_ms=50.0)
            inject_worker_fault(engine, "oom")
            # The engine keeps answering after every fault kind.
            assert engine.run(sleep_spec(5)).answer == 5
            with pytest.raises(ValueError):
                inject_worker_fault(engine, "quake")
