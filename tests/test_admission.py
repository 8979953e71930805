"""Unit tests for the overload-protection policy objects.

Everything here is deterministic and in-process: the admission
semaphore and the deadline-clamping helper run against injected fake
clocks — no worker pool, no sleeps longer than a condition-variable
poll.
"""

import threading

import pytest

from repro.errors import ZenQueueFull
from repro.service import (
    PRIORITIES,
    AdmissionController,
    clamp_spec_deadline,
)
from repro.service.spec import MIN_REMAINING_S, Budget, QuerySpec
from repro.telemetry import delta


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
        before = ctl.detail()
        ctl.try_admit("interactive")
        ctl.try_admit("fuzz")
        for _ in range(5):
            ctl.try_admit("fuzz")  # over the fuzz limit: rejected
        after = ctl.detail()
        admitted = delta(before["admitted"], after["admitted"])
        rejected = delta(before["rejected"], after["rejected"])
        assert admitted["interactive"] == 1
        # fuzz limit at depth 4 is 3 shared slots: two fuzz admits fit
        # behind the interactive task, the rest are rejected.
        assert admitted["fuzz"] == 2
        assert rejected["fuzz"] == 4
        assert after["depth"] == 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdmissionController(max_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(shed_threshold=0.0)
        with pytest.raises(ValueError):
            AdmissionController(shed_threshold=1.5)


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
