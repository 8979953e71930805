"""Unit tests for the overload-protection policy objects.

Everything here is deterministic and in-process: the admission
semaphore, the brownout hysteresis machine and the deadline-clamping
helper run against injected fake clocks —
no worker pool, no sleeps longer than a condition-variable poll.
"""

import threading

import pytest

from repro.errors import ZenQueueFull
from repro.service import (
    BROWNOUT,
    NORMAL,
    PRIORITIES,
    AdmissionController,
    BrownoutController,
    clamp_spec_deadline,
)
from repro.service.spec import MIN_REMAINING_S, Budget, QuerySpec


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# -- AdmissionController ------------------------------------------------


class TestAdmissionController:
    def test_per_priority_limits_are_staggered(self):
        ctl = AdmissionController(max_depth=100, shed_threshold=0.9)
        assert ctl.limit_for("interactive") == 100
        assert ctl.limit_for("batch") == 90
        assert ctl.limit_for("fuzz") == 80

    def test_fuzz_limit_floors_at_one_slot(self):
        ctl = AdmissionController(max_depth=2, shed_threshold=0.5)
        assert ctl.limit_for("fuzz") == 1

    def test_unbounded_admits_everything(self):
        ctl = AdmissionController(max_depth=None)
        for _ in range(10_000):
            assert ctl.try_admit("fuzz")
        assert ctl.limit_for("fuzz") is None
        assert ctl.utilization() == 0.0

    def test_low_priority_hits_backpressure_first(self):
        ctl = AdmissionController(max_depth=10, shed_threshold=0.8)
        for _ in range(8):
            assert ctl.try_admit("batch")
        # Depth 8 = the batch limit: batch and fuzz are refused while
        # interactive still has reserved headroom.
        assert not ctl.try_admit("batch")
        assert not ctl.try_admit("fuzz")
        assert ctl.try_admit("interactive")
        assert ctl.try_admit("interactive")
        assert not ctl.try_admit("interactive")
        assert ctl.depth() == 10
        assert ctl.utilization() == pytest.approx(1.0)

    def test_release_reopens_admission(self):
        ctl = AdmissionController(max_depth=2)
        assert ctl.try_admit("interactive")
        assert ctl.try_admit("interactive")
        assert not ctl.try_admit("interactive")
        ctl.release("interactive")
        assert ctl.try_admit("interactive")

    def test_release_never_goes_negative(self):
        ctl = AdmissionController(max_depth=2)
        ctl.release("interactive")
        ctl.release("interactive")
        assert ctl.depth() == 0
        assert ctl.try_admit("interactive")
        assert ctl.try_admit("interactive")
        assert not ctl.try_admit("interactive")

    def test_fast_reject_raises_queue_full_with_context(self):
        ctl = AdmissionController(max_depth=1)
        ctl.admit("batch")
        with pytest.raises(ZenQueueFull) as excinfo:
            ctl.admit("batch", wait=False)
        assert excinfo.value.priority == "batch"
        assert excinfo.value.depth == 1
        assert excinfo.value.limit == 1
        assert ctl.rejected["batch"] == 1

    def test_blocking_admit_wakes_on_release(self):
        ctl = AdmissionController(max_depth=1)
        ctl.admit("interactive")
        admitted = threading.Event()

        def waiter():
            ctl.admit("interactive", wait=True, timeout_s=5.0)
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            assert not admitted.wait(0.05)
            ctl.release("interactive")
            assert admitted.wait(2.0)
        finally:
            thread.join(5.0)
        assert ctl.depth() == 1

    def test_blocking_admit_honors_timeout(self):
        clock = FakeClock()
        ctl = AdmissionController(max_depth=1, clock=clock)
        ctl.admit("interactive")
        clock.advance(0.0)

        # The fake clock never advances inside cond.wait, so drive the
        # deadline by advancing it from the abort callback the poll
        # loop evaluates every wakeup.
        def tick():
            clock.advance(0.06)
            return False

        with pytest.raises(ZenQueueFull) as excinfo:
            ctl.admit("interactive", wait=True, timeout_s=0.1, abort=tick)
        assert "waited" in str(excinfo.value)

    def test_blocking_admit_aborts_for_closing_engine(self):
        ctl = AdmissionController(max_depth=1)
        ctl.admit("interactive")
        with pytest.raises(ZenQueueFull) as excinfo:
            ctl.admit("interactive", wait=True, abort=lambda: True)
        assert "engine closing" in str(excinfo.value)

    def test_detail_shape(self):
        ctl = AdmissionController(max_depth=4)
        ctl.try_admit("interactive")
        ctl.try_admit("fuzz")
        snap = ctl.detail()
        assert snap["max_depth"] == 4
        assert snap["depth"] == 2
        assert snap["utilization"] == pytest.approx(0.5)
        assert snap["in_flight"]["interactive"] == 1
        assert snap["admitted"]["fuzz"] == 1
        assert set(snap["limits"]) == set(PRIORITIES)

    def test_counter_protocol_snapshot(self):
        ctl = AdmissionController(max_depth=4)
        before = ctl.snapshot()
        ctl.try_admit("interactive")
        ctl.try_admit("fuzz")
        for _ in range(5):
            ctl.try_admit("fuzz")  # over the fuzz limit: rejected
        after = ctl.snapshot()
        # Flat numeric dict — the shared counter protocol.
        assert all(
            isinstance(v, (int, float)) for v in after.values()
        )
        diff = ctl.delta(before, after)
        assert diff["admitted.interactive"] == 1
        # fuzz limit at depth 4 is 3 shared slots: two fuzz admits fit
        # behind the interactive task, the rest are rejected.
        assert diff["admitted.fuzz"] == 2
        assert diff["rejected.fuzz"] == 4
        ctl.reset_counters()
        reset = ctl.snapshot()
        assert reset["admitted.interactive"] == 0
        assert reset["rejected.fuzz"] == 0
        # In-flight occupancy is state, not a counter: it survives.
        assert reset["depth"] == 3

    def test_absorbs_into_metrics_registry(self):
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        ctl = AdmissionController(max_depth=4)
        ctl.try_admit("batch")
        registry.absorb("service.admission", ctl)
        snap = registry.snapshot()
        assert snap["service.admission.admitted.batch"] == 1
        assert snap["service.admission.depth"] == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdmissionController(max_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(shed_threshold=0.0)
        with pytest.raises(ValueError):
            AdmissionController(shed_threshold=1.5)


# -- BrownoutController -------------------------------------------------


class TestBrownoutController:
    def test_enters_on_high_utilization(self):
        clock = FakeClock()
        ctl = BrownoutController(
            enter_utilization=0.75, exit_utilization=0.5, clock=clock
        )
        assert ctl.observe(0.5) == NORMAL
        assert ctl.observe(0.75) == BROWNOUT
        assert ctl.mode == BROWNOUT
        assert ctl.transitions[0][1:3] == (NORMAL, BROWNOUT)

    def test_enters_on_shed_even_at_low_utilization(self):
        ctl = BrownoutController(clock=FakeClock())
        assert ctl.observe(0.1, sheds=3) == BROWNOUT
        assert "shed" in ctl.transitions[0][3]

    def test_exit_requires_calm_for_full_window(self):
        clock = FakeClock()
        ctl = BrownoutController(
            enter_utilization=0.75,
            exit_utilization=0.5,
            window_s=1.0,
            clock=clock,
        )
        ctl.observe(0.9)
        clock.advance(0.5)
        # Calm, but only half a window has elapsed.
        assert ctl.observe(0.1) == BROWNOUT
        clock.advance(0.6)
        assert ctl.observe(0.1) == NORMAL
        assert ctl.transitions[-1][1:3] == (BROWNOUT, NORMAL)

    def test_stress_rearms_the_recovery_window(self):
        clock = FakeClock()
        ctl = BrownoutController(window_s=1.0, clock=clock)
        ctl.observe(0.9)
        clock.advance(0.9)
        ctl.observe(0.9)  # fresh stress just before recovery
        clock.advance(0.9)
        assert ctl.observe(0.1) == BROWNOUT
        clock.advance(0.2)
        assert ctl.observe(0.1) == NORMAL

    def test_high_utilization_blocks_exit(self):
        clock = FakeClock()
        ctl = BrownoutController(
            enter_utilization=0.75,
            exit_utilization=0.5,
            window_s=0.1,
            clock=clock,
        )
        ctl.observe(0.9)
        clock.advance(10.0)
        # Utilization between exit and enter: neither stress nor calm.
        assert ctl.observe(0.6) == BROWNOUT
        assert ctl.observe(0.5) == NORMAL

    def test_detail_records_transitions(self):
        clock = FakeClock(now=5.0)
        ctl = BrownoutController(window_s=0.5, clock=clock)
        ctl.observe(0.9)
        snap = ctl.detail()
        assert snap["mode"] == BROWNOUT
        assert snap["transitions"][0]["at"] == 5.0
        assert snap["transitions"][0]["to"] == BROWNOUT

    def test_counter_protocol_snapshot(self):
        clock = FakeClock(now=5.0)
        ctl = BrownoutController(window_s=0.5, clock=clock)
        assert ctl.snapshot() == {
            "browned_out": 0.0,
            "entered": 0.0,
            "exited": 0.0,
        }
        ctl.observe(0.9)
        assert ctl.snapshot()["browned_out"] == 1.0
        assert ctl.snapshot()["entered"] == 1.0
        clock.advance(1.0)
        ctl.observe(0.1)
        snap = ctl.snapshot()
        assert snap == {"browned_out": 0.0, "entered": 1.0, "exited": 1.0}
        ctl.reset_counters()
        assert ctl.snapshot()["entered"] == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BrownoutController(enter_utilization=0.0)
        with pytest.raises(ValueError):
            BrownoutController(enter_utilization=0.5, exit_utilization=0.6)
        with pytest.raises(ValueError):
            BrownoutController(window_s=0.0)


# -- clamp_spec_deadline ------------------------------------------------


class TestClampSpecDeadline:
    def test_clamps_timeout_to_remaining(self):
        spec = QuerySpec(builder="m:b", timeout_s=10.0)
        clamped = clamp_spec_deadline(spec, 0.5)
        assert clamped.timeout_s == 0.5
        assert clamped.budget is not None
        assert clamped.budget.deadline_s == pytest.approx(0.5)

    def test_keeps_tighter_explicit_timeout(self):
        spec = QuerySpec(builder="m:b", timeout_s=0.2)
        clamped = clamp_spec_deadline(spec, 5.0)
        assert clamped.timeout_s == 0.2

    def test_respects_tighter_existing_budget(self):
        spec = QuerySpec(builder="m:b", budget=Budget(deadline_s=0.1))
        clamped = clamp_spec_deadline(spec, 5.0)
        assert clamped.budget.deadline_s == pytest.approx(0.1)

    def test_brownout_factor_shrinks_budget(self):
        spec = QuerySpec(builder="m:b", timeout_s=10.0)
        clamped = clamp_spec_deadline(spec, 2.0, budget_factor=0.5)
        assert clamped.timeout_s == 2.0
        assert clamped.budget.deadline_s == pytest.approx(1.0)

    def test_no_deadline_no_brownout_is_identity(self):
        spec = QuerySpec(builder="m:b", timeout_s=3.0)
        assert clamp_spec_deadline(spec, None) is spec

    def test_brownout_without_deadline_shrinks_existing_budget(self):
        spec = QuerySpec(builder="m:b", budget=Budget(deadline_s=4.0))
        clamped = clamp_spec_deadline(spec, None, budget_factor=0.25)
        assert clamped.budget.deadline_s == pytest.approx(1.0)

    def test_expired_remaining_floors_at_minimum(self):
        spec = QuerySpec(builder="m:b", timeout_s=10.0)
        clamped = clamp_spec_deadline(spec, -3.0)
        assert clamped.timeout_s == MIN_REMAINING_S
        assert clamped.budget.deadline_s >= MIN_REMAINING_S


# -- QuerySpec validation of the new fields -----------------------------


class TestSpecOverloadFields:
    def test_defaults(self):
        spec = QuerySpec(builder="m:b")
        assert spec.priority == "interactive"
        assert spec.deadline_s is None

    def test_priority_validated(self):
        from repro.errors import ZenTypeError

        with pytest.raises(ZenTypeError):
            QuerySpec(builder="m:b", priority="urgent")

    def test_deadline_validated(self):
        from repro.errors import ZenTypeError

        with pytest.raises(ZenTypeError):
            QuerySpec(builder="m:b", deadline_s=0.0)
        with pytest.raises(ZenTypeError):
            QuerySpec(builder="m:b", deadline_s=-1.0)
