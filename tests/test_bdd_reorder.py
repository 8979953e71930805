"""Tests for offline BDD reordering (rebuild + sifting)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import Bdd, rebuild, sift
from repro.errors import ZenSolverError


def sequential_equality(width: int):
    """x == y with x-block before y-block: the worst-case order."""
    manager = Bdd()
    xs = manager.new_vars(width)
    ys = manager.new_vars(width)
    root = manager.and_many(
        [manager.iff(x, y) for x, y in zip(xs, ys)]
    )
    return manager, root, width


class TestRebuild:
    def test_identity_order_preserves_semantics(self):
        manager, root, width = sequential_equality(3)
        new_manager, new_root = rebuild(
            manager, root, list(range(manager.num_vars))
        )
        for bits in itertools.product([False, True], repeat=6):
            env = dict(enumerate(bits))
            assert manager.evaluate(root, env) == new_manager.evaluate(
                new_root, env_map(env, list(range(6)))
            )

    def test_interleaved_order_shrinks_equality(self):
        manager, root, width = sequential_equality(6)
        big = manager.node_count(root)
        interleaved = [
            v for pair in zip(range(width), range(width, 2 * width)) for v in pair
        ]
        new_manager, new_root = rebuild(manager, root, interleaved)
        small = new_manager.node_count(new_root)
        assert small < big
        assert small <= 3 * width + 2

    def test_rebuild_preserves_semantics_under_any_order(self):
        manager, root, width = sequential_equality(3)
        order = [3, 0, 4, 1, 5, 2]
        new_manager, new_root = rebuild(manager, root, order)
        for bits in itertools.product([False, True], repeat=6):
            env = dict(enumerate(bits))
            new_env = {k: env[v] for k, v in enumerate(order)}
            assert manager.evaluate(root, env) == new_manager.evaluate(
                new_root, new_env
            )

    def test_supports_are_not_shared_between_managers(self):
        # Regression: supports were cached module-wide under
        # (id(manager), node).  Ids are reused once a manager is freed,
        # so a later rebuild read the support of another manager's
        # node and raised "support exhausted" (or copied the wrong
        # variables).  Alternate two functions over disjoint variables
        # through many short-lived managers.
        for round_ in range(200):
            manager = Bdd()
            variables = manager.new_vars(8)
            half = variables[:4] if round_ % 2 else variables[4:]
            root = manager.and_(
                manager.xor(half[0], half[1]), manager.or_(half[2], half[3])
            )
            target, new_root = rebuild(manager, root, list(range(8)))
            assert target.support(new_root) == manager.support(root)
            assert target.sat_count(new_root) == manager.sat_count(root)

    def test_rejects_non_permutation(self):
        manager, root, _ = sequential_equality(2)
        with pytest.raises(ZenSolverError):
            rebuild(manager, root, [0, 0, 1, 2])

    def test_constant_roots(self):
        manager = Bdd()
        manager.new_vars(2)
        new_manager, new_root = rebuild(manager, 1, [0, 1])
        assert new_root == 1
        new_manager, new_root = rebuild(manager, 0, [1, 0])
        assert new_root == 0


def env_map(env, order):
    return {k: env[v] for k, v in enumerate(order)}


class TestSift:
    def test_sift_finds_interleaving(self):
        manager, root, width = sequential_equality(4)
        original = manager.node_count(root)
        new_manager, new_root, order = sift(manager, root, max_passes=2)
        assert new_manager.node_count(new_root) < original
        assert new_manager.node_count(new_root) <= 3 * width + 2

    def test_sift_preserves_semantics(self):
        manager, root, width = sequential_equality(3)
        new_manager, new_root, order = sift(manager, root)
        for bits in itertools.product([False, True], repeat=6):
            env = dict(enumerate(bits))
            new_env = {k: env[v] for k, v in enumerate(order)}
            assert manager.evaluate(root, env) == new_manager.evaluate(
                new_root, new_env
            )

    def test_sift_never_worsens(self):
        manager = Bdd()
        vs = manager.new_vars(5)
        root = manager.and_many(vs)  # already optimal (a cube)
        before = manager.node_count(root)
        new_manager, new_root, _ = sift(manager, root)
        assert new_manager.node_count(new_root) <= before

    def test_sift_var_guard(self):
        manager, root, _ = sequential_equality(3)
        with pytest.raises(ZenSolverError):
            sift(manager, root, max_vars=2)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_sift_random_functions_semantics(self, data):
        manager = Bdd()
        vs = manager.new_vars(4)
        pool = list(vs)
        for _ in range(data.draw(st.integers(1, 6))):
            op = data.draw(st.sampled_from(["and", "or", "xor", "not"]))
            a = data.draw(st.sampled_from(pool))
            if op == "not":
                pool.append(manager.not_(a))
                continue
            b = data.draw(st.sampled_from(pool))
            fn = {"and": manager.and_, "or": manager.or_, "xor": manager.xor}[op]
            pool.append(fn(a, b))
        root = pool[-1]
        new_manager, new_root, order = sift(manager, root, max_passes=1)
        for bits in itertools.product([False, True], repeat=4):
            env = dict(enumerate(bits))
            new_env = {k: env[v] for k, v in enumerate(order)}
            assert manager.evaluate(root, env) == new_manager.evaluate(
                new_root, new_env
            )
