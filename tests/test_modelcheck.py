"""Tests for the unbounded model checker (fixpoint reachability)."""

from __future__ import annotations

import pytest

from repro import Byte, TransformerContext, ZenFunction, if_
from repro.core import (
    backward_reachable,
    can_reach,
    check_invariant,
    forward_image,
    reachable_states,
)
from repro.errors import ZenTypeError


@pytest.fixture
def ctx():
    return TransformerContext(max_list_length=1)


def counter_mod(n: int) -> ZenFunction:
    """A step function: x -> (x + 1) mod n over bytes."""
    return ZenFunction(
        lambda x: if_(x >= n - 1, 0, x + 1), [Byte], name=f"mod{n}"
    )


class TestContexts:
    def test_image_is_taken_in_the_sets_context(self, ctx):
        image = forward_image(counter_mod(5), ctx.singleton(Byte, 0))
        assert image.count() == 1 and image.contains(1)
        assert image.context is ctx

    def test_foreign_set_rejected_by_transformer(self, ctx):
        transformer = counter_mod(5).transformer(ctx)
        other = TransformerContext(max_list_length=1)
        with pytest.raises(ZenTypeError):
            transformer.transform_forward(other.singleton(Byte, 2))
        with pytest.raises(ZenTypeError):
            transformer.transform_reverse(other.singleton(Byte, 2))


class TestReachableStates:
    def test_cycle_reaches_exactly_cycle(self, ctx):
        step = counter_mod(5)
        report = reachable_states(step, ctx.singleton(Byte, 0))
        assert report.converged
        for value in range(5):
            assert report.reachable.contains(value)
        assert not report.reachable.contains(5)
        assert report.reachable.count() == 5

    def test_from_mid_cycle(self, ctx):
        step = counter_mod(5)
        report = reachable_states(step, ctx.singleton(Byte, 3))
        assert report.reachable.count() == 5  # wraps around

    def test_outside_cycle_funnels_in(self, ctx):
        step = counter_mod(5)
        # 200 -> 0 (since 200 >= 4) -> cycles.
        report = reachable_states(step, ctx.singleton(Byte, 200))
        assert report.reachable.contains(200)
        assert report.reachable.count() == 6

    def test_iteration_budget(self, ctx):
        step = ZenFunction(lambda x: x + 1, [Byte])
        report = reachable_states(
            step, ctx.singleton(Byte, 0), max_iterations=3
        )
        assert not report.converged

    def test_requires_endomorphism(self, ctx):
        step = ZenFunction(lambda x: x > 0, [Byte])
        with pytest.raises(ZenTypeError):
            reachable_states(step, ctx.singleton(Byte, 0))


class TestInvariants:
    def test_invariant_holds(self, ctx):
        step = counter_mod(5)
        violation = check_invariant(
            step,
            ctx.singleton(Byte, 0),
            ZenFunction(lambda x: x < 5, [Byte]),
        )
        assert violation is None

    def test_invariant_violated(self, ctx):
        step = counter_mod(10)
        violation = check_invariant(
            step,
            ctx.singleton(Byte, 0),
            ZenFunction(lambda x: x < 5, [Byte]),
        )
        assert violation is not None and 5 <= violation < 10


class TestReachQueries:
    def test_can_reach_positive(self, ctx):
        step = counter_mod(8)
        hit = can_reach(
            step,
            ctx.singleton(Byte, 0),
            ctx.singleton(Byte, 6),
        )
        assert hit == 6

    def test_can_reach_negative(self, ctx):
        step = counter_mod(8)
        hit = can_reach(
            step,
            ctx.singleton(Byte, 0),
            ctx.singleton(Byte, 9),
        )
        assert hit is None

    def test_backward_reachable(self, ctx):
        step = counter_mod(4)
        report = backward_reachable(step, ctx.singleton(Byte, 3))
        assert report.converged
        # Everything in the cycle can reach 3; so can any byte >= 3
        # (they step to 0 first).
        assert report.reachable.contains(0)
        assert report.reachable.contains(200)

    def test_forward_backward_duality(self, ctx):
        step = counter_mod(6)
        start = ctx.singleton(Byte, 2)
        target = ctx.singleton(Byte, 5)
        forward_hit = can_reach(step, start, target)
        back = backward_reachable(step, target)
        assert (forward_hit is not None) == back.reachable.contains(2)
