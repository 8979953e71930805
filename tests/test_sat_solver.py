"""Unit and property-based tests for the CDCL SAT solver."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ZenSolverError
from repro.sat import Solver, luby


def make_solver(num_vars: int) -> Solver:
    s = Solver()
    for _ in range(num_vars):
        s.new_var()
    return s


def brute_force_sat(num_vars: int, clauses: list[list[int]]) -> bool:
    """Reference satisfiability check by exhaustive enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(
                bits[abs(lit) - 1] == (lit > 0) for lit in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


def check_model(s: Solver, clauses: list[list[int]]) -> None:
    """Assert that the solver's model satisfies every clause."""
    for clause in clauses:
        assert any(
            s.model_value(abs(lit)) == (lit > 0) for lit in clause
        ), f"clause {clause} not satisfied"


class TestBasics:
    def test_empty_solver_is_sat(self):
        s = Solver()
        assert s.solve()

    def test_single_unit(self):
        s = make_solver(1)
        s.add_clause([1])
        assert s.solve()
        assert s.model_value(1)

    def test_negative_unit(self):
        s = make_solver(1)
        s.add_clause([-1])
        assert s.solve()
        assert not s.model_value(1)

    def test_contradiction(self):
        s = make_solver(1)
        s.add_clause([1])
        assert not s.add_clause([-1])
        assert not s.solve()

    def test_implication_chain(self):
        n = 50
        s = make_solver(n)
        for i in range(1, n):
            s.add_clause([-i, i + 1])
        s.add_clause([1])
        assert s.solve()
        for i in range(1, n + 1):
            assert s.model_value(i)

    def test_tautology_ignored(self):
        s = make_solver(2)
        assert s.add_clause([1, -1])
        s.add_clause([2])
        assert s.solve()
        assert s.model_value(2)

    def test_duplicate_literals_collapsed(self):
        s = make_solver(1)
        s.add_clause([1, 1, 1])
        assert s.solve()
        assert s.model_value(1)

    def test_unknown_variable_rejected(self):
        s = make_solver(1)
        with pytest.raises(ZenSolverError):
            s.add_clause([2])

    def test_model_unavailable_after_unsat(self):
        s = make_solver(1)
        s.add_clause([1])
        s.add_clause([-1])
        s.solve()
        with pytest.raises(ZenSolverError):
            s.model_value(1)

    def test_model_list_form(self):
        s = make_solver(2)
        s.add_clause([1])
        s.add_clause([-2])
        assert s.solve()
        assert s.model() == [1, -2]

    def test_statistics_counters(self):
        s = make_solver(3)
        s.add_clause([1, 2])
        s.add_clause([-1, 3])
        assert s.solve()
        stats = s.statistics
        assert stats["conflicts"] >= 0
        assert stats["propagations"] >= 0


class TestClassicFormulas:
    def test_xor_chain_unsat(self):
        """x1 xor x2, x2 xor x3, x1 xor x3 with odd parity is unsat."""
        s = make_solver(3)
        # x1 != x2
        s.add_clause([1, 2])
        s.add_clause([-1, -2])
        # x2 != x3
        s.add_clause([2, 3])
        s.add_clause([-2, -3])
        # x1 != x3
        s.add_clause([1, 3])
        s.add_clause([-1, -3])
        assert not s.solve()

    def test_pigeonhole_3_into_2(self):
        """PHP(3,2) is a classic small unsat instance."""
        # Variable p[i][j]: pigeon i in hole j; 1-indexed flattening.
        def var(i, j):
            return i * 2 + j + 1

        s = make_solver(6)
        clauses = []
        for i in range(3):
            clauses.append([var(i, 0), var(i, 1)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append([-var(i1, j), -var(i2, j)])
        for c in clauses:
            s.add_clause(c)
        assert not s.solve()

    def test_pigeonhole_4_into_4_sat(self):
        def var(i, j):
            return i * 4 + j + 1

        s = make_solver(16)
        clauses = []
        for i in range(4):
            clauses.append([var(i, j) for j in range(4)])
        for j in range(4):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    clauses.append([-var(i1, j), -var(i2, j)])
        for c in clauses:
            s.add_clause(c)
        assert s.solve()
        check_model(s, clauses)

    def test_graph_coloring_triangle_2_colors_unsat(self):
        # Vertex v gets color bit x_v; edges require different colors.
        s = make_solver(3)
        for a, b in [(1, 2), (2, 3), (1, 3)]:
            s.add_clause([a, b])
            s.add_clause([-a, -b])
        assert not s.solve()

    def test_at_most_one_pairwise(self):
        n = 8
        s = make_solver(n)
        s.add_clause(list(range(1, n + 1)))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                s.add_clause([-i, -j])
        assert s.solve()
        assert sum(1 for v in range(1, n + 1) if s.model_value(v)) == 1


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = make_solver(2)
        s.add_clause([-1, 2])
        assert s.solve(assumptions=[1])
        assert s.model_value(1)
        assert s.model_value(2)

    def test_conflicting_assumptions(self):
        s = make_solver(1)
        assert not s.solve(assumptions=[1, -1])
        assert s.failed_assumptions()

    def test_assumption_vs_clause_conflict(self):
        s = make_solver(2)
        s.add_clause([-1, 2])
        s.add_clause([-2])
        assert not s.solve(assumptions=[1])
        assert 1 in s.failed_assumptions()

    def test_solver_reusable_after_assumption_failure(self):
        s = make_solver(2)
        s.add_clause([-1, 2])
        s.add_clause([-2])
        assert not s.solve(assumptions=[1])
        assert s.solve()
        assert not s.model_value(1)

    def test_incremental_clause_addition(self):
        s = make_solver(3)
        s.add_clause([1, 2, 3])
        assert s.solve()
        s.add_clause([-1])
        assert s.solve()
        s.add_clause([-2])
        assert s.solve()
        assert s.model_value(3)
        s.add_clause([-3])
        assert not s.solve()


class TestModelEnumeration:
    def test_iter_models_counts(self):
        s = make_solver(3)
        s.add_clause([1, 2, 3])
        models = list(s.iter_models(variables=[1, 2, 3]))
        assert len(models) == 7  # all assignments except all-false

    def test_iter_models_respects_limit(self):
        s = make_solver(3)
        models = list(s.iter_models(variables=[1, 2, 3], limit=3))
        assert len(models) == 3


class TestLuby:
    def test_luby_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i + 1) for i in range(len(expected))] == expected


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(min_value=1, max_value=8))
    num_clauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=4))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(width)
        ]
        clauses.append(clause)
    return num_vars, clauses


class TestAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(random_cnf())
    def test_matches_brute_force(self, problem):
        num_vars, clauses = problem
        s = make_solver(num_vars)
        trivially_unsat = False
        for clause in clauses:
            if not s.add_clause(clause):
                trivially_unsat = True
        result = s.solve()
        expected = brute_force_sat(num_vars, clauses)
        assert result == expected
        if trivially_unsat:
            assert not expected
        if result:
            check_model(s, clauses)

    @settings(max_examples=50, deadline=None)
    @given(random_cnf(), st.randoms())
    def test_assumptions_match_unit_clauses(self, problem, rng):
        """solve(assumptions=A) must equal solving with A as units."""
        num_vars, clauses = problem
        assumed = sorted(
            rng.sample(range(1, num_vars + 1), k=min(2, num_vars))
        )
        assumptions = [v if rng.random() < 0.5 else -v for v in assumed]

        s1 = make_solver(num_vars)
        for clause in clauses:
            s1.add_clause(clause)
        result_assume = s1.solve(assumptions=assumptions)

        expected = brute_force_sat(
            num_vars, clauses + [[lit] for lit in assumptions]
        )
        assert result_assume == expected


def test_random_3sat_medium():
    """A medium random 3-SAT instance solves and the model checks out."""
    rng = random.Random(7)
    num_vars = 60
    clauses = []
    for _ in range(150):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    s = make_solver(num_vars)
    for c in clauses:
        s.add_clause(c)
    if s.solve():
        check_model(s, clauses)


def test_unsat_core_style_usage():
    """Failed assumptions can be used to narrow an infeasible query."""
    s = make_solver(4)
    s.add_clause([-1, -2])
    assert not s.solve(assumptions=[1, 2])
    failed = set(s.failed_assumptions())
    assert failed.issubset({1, 2})
    assert failed
