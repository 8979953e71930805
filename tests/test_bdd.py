"""Tests for the ROBDD manager and ordering utilities."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, Bdd, VariableAllocator
from repro.errors import ZenSolverError


def make(n: int):
    m = Bdd()
    vs = m.new_vars(n)
    return m, vs


class TestBasics:
    def test_terminals(self):
        m = Bdd()
        assert m.is_terminal(TRUE)
        assert m.is_terminal(FALSE)
        assert m.and_(TRUE, TRUE) == TRUE
        assert m.and_(TRUE, FALSE) == FALSE
        assert m.or_(FALSE, FALSE) == FALSE

    def test_var_evaluation(self):
        m, (x,) = make(1)
        assert m.evaluate(x, {0: True})
        assert not m.evaluate(x, {0: False})

    def test_canonicity(self):
        m, (x, y) = make(2)
        f1 = m.and_(x, y)
        f2 = m.and_(y, x)
        assert f1 == f2
        g1 = m.or_(m.not_(x), m.not_(y))
        assert g1 == m.not_(f1)

    def test_idempotent_nodes_collapse(self):
        m, (x,) = make(1)
        assert m.ite(x, TRUE, TRUE) == TRUE

    def test_unknown_variable_raises(self):
        m, _ = make(1)
        with pytest.raises(ZenSolverError):
            m.var(5)

    @pytest.mark.parametrize("va,vb", itertools.product([False, True], repeat=2))
    def test_binary_op_semantics(self, va, vb):
        m, (x, y) = make(2)
        env = {0: va, 1: vb}
        assert m.evaluate(m.and_(x, y), env) == (va and vb)
        assert m.evaluate(m.or_(x, y), env) == (va or vb)
        assert m.evaluate(m.xor(x, y), env) == (va != vb)
        assert m.evaluate(m.iff(x, y), env) == (va == vb)
        assert m.evaluate(m.implies(x, y), env) == ((not va) or vb)
        assert m.evaluate(m.diff(x, y), env) == (va and not vb)

    def test_and_or_many(self):
        m, vs = make(4)
        f = m.and_many(vs)
        assert m.evaluate(f, {i: True for i in range(4)})
        assert not m.evaluate(f, {0: True, 1: True, 2: True, 3: False})
        g = m.or_many(vs)
        assert m.evaluate(g, {0: False, 1: False, 2: False, 3: True})
        assert not m.evaluate(g, {i: False for i in range(4)})


class TestQuantification:
    def test_exists_removes_variable(self):
        m, (x, y) = make(2)
        f = m.and_(x, y)
        g = m.exists(f, [0])
        assert g == y
        assert m.support(g) == [1]

    def test_forall(self):
        m, (x, y) = make(2)
        f = m.or_(x, y)
        g = m.forall(f, [0])
        assert g == y

    def test_exists_over_tautology_direction(self):
        m, (x,) = make(1)
        assert m.exists(x, [0]) == TRUE
        assert m.forall(x, [0]) == FALSE

    def test_quantify_multiple(self):
        m, (x, y, z) = make(3)
        f = m.and_many([x, y, z])
        assert m.exists(f, [0, 1]) == z
        assert m.exists(f, [0, 1, 2]) == TRUE

    def test_quantify_var_not_in_support(self):
        m, (x, y) = make(2)
        assert m.exists(x, [1]) == x


class TestRestrictComposeRename:
    def test_restrict(self):
        m, (x, y) = make(2)
        f = m.xor(x, y)
        assert m.restrict(f, {0: True}) == m.not_(y)
        assert m.restrict(f, {0: False}) == y

    def test_restrict_total(self):
        m, (x, y) = make(2)
        f = m.and_(x, y)
        assert m.restrict(f, {0: True, 1: True}) == TRUE
        assert m.restrict(f, {0: True, 1: False}) == FALSE

    def test_compose(self):
        m, (x, y, z) = make(3)
        f = m.and_(x, y)
        # substitute y := z
        g = m.compose(f, 1, z)
        assert g == m.and_(x, z)

    def test_compose_with_formula(self):
        m, (x, y, z) = make(3)
        f = m.or_(x, y)
        g = m.compose(f, 0, m.and_(y, z))
        for env in itertools.product([False, True], repeat=3):
            a = dict(zip(range(3), env))
            expected = (a[1] and a[2]) or a[1]
            assert m.evaluate(g, a) == expected

    def test_rename_monotone(self):
        m, (x, y, z) = make(3)
        f = m.and_(x, y)
        g = m.rename(f, {0: 1, 1: 2})
        assert g == m.and_(y, z)

    def test_rename_rejects_order_violation(self):
        m, (x, y) = make(2)
        f = m.and_(x, y)
        with pytest.raises(ZenSolverError):
            m.rename(f, {0: 1, 1: 0})

    def test_rename_rejects_collision_with_unmapped(self):
        m, (x, y) = make(2)
        f = m.and_(x, y)
        with pytest.raises(ZenSolverError):
            m.rename(f, {1: 0})

    def test_rename_unknown_target(self):
        m, (x,) = make(1)
        with pytest.raises(ZenSolverError):
            m.rename(x, {0: 7})


class TestCounting:
    def test_sat_count_simple(self):
        m, (x, y) = make(2)
        assert m.sat_count(m.and_(x, y)) == 1
        assert m.sat_count(m.or_(x, y)) == 3
        assert m.sat_count(m.xor(x, y)) == 2
        assert m.sat_count(TRUE) == 4
        assert m.sat_count(FALSE) == 0

    def test_sat_count_with_dont_cares(self):
        m, vs = make(5)
        f = vs[2]  # only middle variable constrained
        assert m.sat_count(f) == 2 ** 4

    def test_any_sat(self):
        m, (x, y) = make(2)
        f = m.and_(x, m.not_(y))
        a = m.any_sat(f)
        assert a == {0: True, 1: False}
        assert m.any_sat(FALSE) is None

    def test_pick_assignment_totalizes(self):
        m, vs = make(3)
        f = vs[1]
        a = m.pick_assignment(f, [0, 1, 2])
        assert set(a) == {0, 1, 2}
        assert a[1] is True

    def test_iter_sat_covers_function(self):
        m, (x, y) = make(2)
        f = m.xor(x, y)
        paths = list(m.iter_sat(f))
        total = set()
        for path in paths:
            free = [v for v in (0, 1) if v not in path]
            for bits in itertools.product([False, True], repeat=len(free)):
                full = dict(path)
                full.update(zip(free, bits))
                total.add((full[0], full[1]))
        assert total == {(True, False), (False, True)}

    def test_node_count(self):
        m, (x, y) = make(2)
        assert m.node_count(TRUE) == 0
        assert m.node_count(x) == 1
        assert m.node_count(m.and_(x, y)) == 2


class TestHelpers:
    def test_cube(self):
        m, vs = make(3)
        f = m.cube({0: True, 2: False})
        assert m.evaluate(f, {0: True, 1: False, 2: False})
        assert not m.evaluate(f, {0: True, 1: False, 2: True})

    @pytest.mark.parametrize("literals", [{7: True}, {1: True, 3: False}, {-1: True}])
    def test_cube_rejects_unknown_variables(self, literals):
        # Used to leak a bare IndexError from the unique-table lookup
        # (and to build a node at "level -1" for a negative index).
        m, vs = make(3)
        nodes = m.num_nodes
        with pytest.raises(ZenSolverError, match="unknown BDD variable"):
            m.cube(literals)
        assert m.num_nodes == nodes

    def test_clear_cache_keeps_results_valid(self):
        m, (x, y) = make(2)
        f = m.and_(x, y)
        m.clear_cache()
        g = m.and_(x, y)
        assert f == g


class TestOrderingSensitivity:
    @staticmethod
    def equality_bdd(m: Bdd, xs, ys):
        return m.and_many([m.iff(x, y) for x, y in zip(xs, ys)])

    def test_interleaved_equality_is_linear(self):
        width = 12
        m = Bdd()
        alloc = VariableAllocator()
        (xi, yi) = alloc.interleaved(2, width)
        m.new_vars(alloc.allocated)
        xs = [m.var(i) for i in xi]
        ys = [m.var(i) for i in yi]
        f = self.equality_bdd(m, xs, ys)
        assert m.node_count(f) <= 3 * width + 2

    def test_sequential_equality_is_exponential(self):
        width = 8
        m = Bdd()
        xs = m.new_vars(width)
        ys = m.new_vars(width)
        f = self.equality_bdd(m, xs, ys)
        # Sequential layout blows up: at the boundary between the two
        # blocks the BDD must remember all 2^width values of x.
        assert m.node_count(f) >= 2 ** width

    def test_allocator_shapes(self):
        alloc = VariableAllocator()
        with pytest.raises(ZenSolverError):
            alloc.interleaved(0, 4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_formula_matches_truth_table(data):
    """Random BDD expressions agree with direct Boolean evaluation."""
    num_vars = data.draw(st.integers(2, 4))
    m = Bdd()
    vs = m.new_vars(num_vars)

    def rand_expr(depth: int):
        if depth == 0 or data.draw(st.booleans()):
            i = data.draw(st.integers(0, num_vars - 1))
            return vs[i], lambda env, i=i: env[i]
        op = data.draw(st.sampled_from(["and", "or", "xor", "not", "ite"]))
        a_node, a_fn = rand_expr(depth - 1)
        if op == "not":
            return m.not_(a_node), lambda env: not a_fn(env)
        b_node, b_fn = rand_expr(depth - 1)
        if op == "and":
            return m.and_(a_node, b_node), lambda env: a_fn(env) and b_fn(env)
        if op == "or":
            return m.or_(a_node, b_node), lambda env: a_fn(env) or b_fn(env)
        if op == "xor":
            return m.xor(a_node, b_node), lambda env: a_fn(env) != b_fn(env)
        c_node, c_fn = rand_expr(depth - 1)
        return (
            m.ite(a_node, b_node, c_node),
            lambda env: b_fn(env) if a_fn(env) else c_fn(env),
        )

    node, fn = rand_expr(3)
    count = 0
    for bits in itertools.product([False, True], repeat=num_vars):
        env = dict(enumerate(bits))
        expected = fn(env)
        assert m.evaluate(node, env) == expected
        count += int(expected)
    assert m.sat_count(node) == count
