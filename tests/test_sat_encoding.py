"""The gate path between the AIG and the solver, against the clause path.

``encode`` hands the solver gates (``Solver.add_gates``), not clauses,
and folds the ``ite`` / ``xor`` triple into one mux gate.  The
reference throughout is what it replaced: one variable per cone node,
three ``add_clause`` calls per AND gate.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import ZenBudgetExceeded, ZenFunction
from repro.aig import FALSE_LIT, TRUE_LIT, Aig, encode, to_cnf
from repro.backends import SatBackend
from repro.errors import ZenSolverError
from repro.network import Route
from repro.sat import Solver, gate_clauses
from tests.test_dont_care import _e2e_models


# ---------------------------------------------------------------------------
# Random graphs and gate lists
# ---------------------------------------------------------------------------


@st.composite
def graphs(draw, ops=("and", "or", "not", "xor", "ite", "ite_shared")):
    """(aig, inputs, pool of literals, roots).

    ``ite_shared`` also puts an inner gate of the triple into the pool,
    so later gates and roots can hold a second reference to it.
    """
    g = Aig()
    inputs = [g.new_input() for _ in range(draw(st.integers(1, 6)))]
    pool = list(inputs)
    pick = st.sampled_from(pool)
    for _ in range(draw(st.integers(0, 14))):
        op = draw(st.sampled_from(ops))
        a, b, c = draw(pick), draw(pick), draw(pick)
        if op == "and":
            pool.append(g.and_(a, b))
        elif op == "or":
            pool.append(g.or_(a, b))
        elif op == "not":
            pool.append(g.not_(a))
        elif op == "xor":
            pool.append(g.xor(a, b))
        else:
            if op == "ite_shared":
                pool.append(g.and_(c, a) if draw(st.booleans()) else g.and_(c ^ 1, b))
            pool.append(g.ite(c, a, b))
        pick = st.sampled_from(pool)
    # Any literal may be a root: inner gates, constants, one twice.
    roots = draw(st.lists(st.sampled_from(pool + [TRUE_LIT, FALSE_LIT]), min_size=1, max_size=4))
    return g, inputs, pool, roots


@st.composite
def gate_lists(draw):
    """(number of variables, well-formed AND and mux gates over them)."""
    n = draw(st.integers(4, 9))
    lits = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    gates = []
    for _ in range(draw(st.integers(1, 10))):
        gate = (draw(st.integers(1, n)), *draw(st.lists(lits, min_size=2, max_size=3)))
        out, first, *arms = (abs(lit) for lit in gate)
        if out != first and all(arm not in (out, first) for arm in arms):
            gates.append(gate)
    return n, gates


def clause_path(aig, roots):
    """The encoder this one replaced: (solver, node -> variable)."""
    solver = Solver()
    cone = aig.cone(roots)
    var = {node: solver.new_var() for node in cone}

    def lit(aig_lit):
        return -var[aig_lit >> 1] if aig_lit & 1 else var[aig_lit >> 1]

    for node in cone:
        if not aig.is_input(2 * node):
            a, b = aig.fanin(2 * node)
            solver.add_clause([-var[node], lit(a)])
            solver.add_clause([-var[node], lit(b)])
            solver.add_clause([var[node], -lit(a), -lit(b)])
    for root in roots:
        if root == FALSE_LIT:
            fresh = solver.new_var()
            solver.add_clause([fresh])
            solver.add_clause([-fresh])
        elif root != TRUE_LIT:
            solver.add_clause([lit(root)])
    return solver, var


def stored_clauses(solver):
    """The solver's problem clauses in DIMACS, each sorted."""
    return sorted(sorted(Solver._external(lit) for lit in clause) for clause in solver._clauses)


def assert_watch_invariants(solver):
    """Each stored clause is watched by its first two literals, only."""
    watched = {}
    for lit, watchers in enumerate(solver._watches):
        for clause in watchers:
            assert lit in clause[:2]
            watched[id(clause)] = watched.get(id(clause), 0) + 1
    assert watched == {id(clause): 2 for clause in solver._clauses}


def satisfiable_by_brute_force(num_vars, clauses):
    return any(
        all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses)
        for bits in itertools.product([False, True], repeat=num_vars)
    )


# ---------------------------------------------------------------------------
# (i) The loader writes what add_clause would
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(gate_lists())
def test_bulk_loader_leaves_the_state_add_clause_leaves(problem):
    n, gates = problem
    bulk, one_by_one = Solver(), Solver()
    bulk.new_vars(n)
    for _ in range(n):
        one_by_one.new_var()
    assert bulk.add_gates(gates)
    for gate in gates:
        for clause in gate_clauses(gate):
            assert one_by_one.add_clause(clause)
    assert bulk.num_vars == one_by_one.num_vars
    assert bulk.num_clauses == one_by_one.num_clauses
    # Literal for literal and watcher for watcher, in the same order.
    assert bulk._clauses == one_by_one._clauses
    assert bulk._watches == one_by_one._watches
    assert bulk._order == one_by_one._order
    assert_watch_invariants(bulk)


@settings(max_examples=150, deadline=None)
@given(graphs(ops=("and", "or", "not")))
def test_without_a_triple_the_cnf_is_the_old_one(graph):
    g, _, _, roots = graph
    assume(not g.absorb_muxes(g.cone_references(roots)))
    mapping, _ = encode(g, roots)
    reference, var = clause_path(g, roots)
    assert mapping.solver.num_vars == reference.num_vars
    assert stored_clauses(mapping.solver) == stored_clauses(reference)
    assert mapping.solver._trail == reference._trail  # the asserted roots
    assert_watch_invariants(mapping.solver)
    for node, v in var.items():
        assert mapping.solver_literal(2 * node) == v


@pytest.mark.parametrize(
    "gate",
    [(1, 2, 2), (1, 2, -2), (1, 1, 2), (1, 2, 9), (0, 1, 2), (-1, 2, 3),
     (1, 2, 2, 3), (1, 2, 3, 2), (1, 1, 2, 3), (1, 2, 1, 3), (1, 2, 3, 1), (1, 2, 3, 9)],
)
def test_malformed_gates_are_rejected(gate):
    solver = Solver()
    solver.new_vars(3)
    with pytest.raises(ZenSolverError):
        solver.add_gates([gate])


def test_mux_arms_may_share_a_variable():
    solver = Solver()
    solver.new_vars(3)
    assert solver.add_gates([(1, 2, 3, -3), (1, 2, 3, 3)])
    assert solver.num_clauses == 8
    assert_watch_invariants(solver)


# ---------------------------------------------------------------------------
# (ii) The encoding means what the graph means
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_models_are_exactly_the_assignments_that_satisfy_the_roots(graph):
    g, inputs, pool, roots = graph
    mapping, root_lits = encode(g, roots)
    assert len(root_lits) == len(roots)
    for bits in itertools.product([False, True], repeat=len(inputs)):
        env = dict(zip(inputs, bits))
        sim = g.simulate(env)
        assumptions = []
        for x in inputs:
            lit = mapping.solver_literal(x)
            if lit is not None:
                assumptions.append(lit if env[x] else -lit)
            else:
                env[x] = False  # out of the cone: the model reads it as False
        satisfiable = mapping.solver.solve(assumptions)
        assert satisfiable == all(sim[root] for root in roots)
        if satisfiable:
            # Every literal of the graph reads as the simulator computes
            # it: in the cone, absorbed into a mux, or outside.
            sim = g.simulate(env)
            for lit in pool:
                assert mapping.model_value(lit) is sim[lit]
                assert mapping.model_value(lit ^ 1) is sim[lit ^ 1]


def test_triple_is_one_variable_and_four_clauses():
    g = Aig()
    c, t, e = g.new_input(), g.new_input(), g.new_input()
    out = g.ite(c, t, e)
    mapping, _ = encode(g, [out], assert_roots=False)
    assert (mapping.solver.num_vars, mapping.solver.num_clauses) == (4, 4)
    # The inner gates have no variable, and a value all the same.
    inner = [lit for lit in g.fanin(out)]
    assert [mapping.solver_literal(lit) for lit in inner] == [None, None]
    assert mapping.solver.solve([mapping.solver_literal(c), mapping.solver_literal(t)])
    assert mapping.model_value(out)
    assert mapping.model_value(g.and_(c, t))
    assert not mapping.model_value(g.and_(c ^ 1, e))


def test_an_inner_gate_someone_else_uses_keeps_its_variable():
    g = Aig()
    c, t, e = g.new_input(), g.new_input(), g.new_input()
    inner = g.and_(c, t)
    out = g.ite(c, t, e)
    for roots in ([out, inner], [g.and_(out, inner)]):
        mapping, _ = encode(g, roots, assert_roots=False)
        assert mapping.solver_literal(inner) is not None
        # No mux: three gates for the triple (plus the gate above it).
        assert mapping.solver.num_clauses == 3 * (mapping.solver.num_vars - 3)


# ---------------------------------------------------------------------------
# (iii) One encoder, two sinks
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_to_cnf_returns_the_clauses_the_solver_received(graph):
    g, inputs, _, roots = graph
    root = roots[0]
    num_vars, clauses, input_map = to_cnf(g, root)
    mapping, _ = encode(g, [root])
    solver = mapping.solver
    assert num_vars == solver.num_vars
    assert sorted(sorted(c) for c in clauses if len(c) > 1) == stored_clauses(solver)
    # Units are not stored, they are assigned.
    units = [c[0] for c in clauses if len(c) == 1]
    if root == FALSE_LIT:
        assert units == [num_vars, -num_vars]
    elif solver.solve():
        assert all(solver.model_value(abs(u)) == (u > 0) for u in units)
    assert input_map == {
        x: mapping.solver_literal(x)
        for x in inputs
        if mapping.solver_literal(x) is not None
    }


# ---------------------------------------------------------------------------
# (iv) Level-0 units already in the solver
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(gate_lists(), st.data())
def test_loading_over_level0_units_gives_the_clause_paths_verdicts(problem, data):
    n, gates = problem
    units = data.draw(
        st.lists(st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])), max_size=4)
    )
    gates_last, clauses_last, gates_first = Solver(), Solver(), Solver()
    for solver in (gates_last, clauses_last, gates_first):
        solver.new_vars(n)
    gates_first.add_gates(gates)
    for solver in (gates_last, clauses_last, gates_first):
        for unit in units:
            solver.add_clause([unit])
    gates_last.add_gates(gates)
    for gate in gates:
        for clause in gate_clauses(gate):
            clauses_last.add_clause(clause)
    # Over units the loader is add_clause: the same simplified clauses.
    assert gates_last._clauses == clauses_last._clauses
    assert gates_last._trail == clauses_last._trail
    expected = satisfiable_by_brute_force(
        n, [[u] for u in units] + [c for gate in gates for c in gate_clauses(gate)]
    )
    assert gates_last.solve() == clauses_last.solve() == gates_first.solve() == expected


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_encoding_into_a_solver_that_holds_units(graph):
    g, _, _, roots = graph
    fresh, _ = encode(g, roots)
    used = Solver()
    a, b = used.new_var(), used.new_var()
    used.add_clause([a])
    used.add_clause([-a, b])
    mapping, _ = encode(g, roots, solver=used)
    assert mapping.solver is used
    assert used.num_vars == fresh.solver.num_vars + 2
    assert used.solve() == fresh.solver.solve()


# ---------------------------------------------------------------------------
# (v) Counts: an encoding change shows as a number
# ---------------------------------------------------------------------------


def _route_map_query(clauses):
    models = _e2e_models()
    return ZenFunction(
        models.structural_model(models.shaped_route_map(7, 0, 0, clauses)), (Route,)
    )


def test_pinned_route_map_counts():
    """12 clauses: the cone of this query was 3,127 variables and 8,808
    clauses gate by gate."""
    function = _route_map_query(12)
    engine = SatBackend()
    seen = []
    original = Solver.solve

    def spy(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        seen.append((self.num_vars, self.num_clauses, self.statistics["conflicts"]))
        return result

    try:
        Solver.solve = spy
        assert function.find(backend=engine, max_list_length=4) is not None
    finally:
        Solver.solve = original
    assert engine.aig.num_nodes == 3466
    assert seen == [(1608, 4846, 0)]
    assert engine.statistics["conflicts"] == 0


# ---------------------------------------------------------------------------
# The meter inside the loader
# ---------------------------------------------------------------------------


class _CountingMeter:
    def __init__(self, trip_at=None):
        self.checks = 0
        self.trip_at = trip_at

    def check_deadline(self):
        self.checks += 1
        if self.checks == self.trip_at:
            raise ZenBudgetExceeded("deadline", reason="deadline")


def test_loader_looks_at_the_deadline_every_few_thousand_gates():
    gates = [(v, v - 2, -(v - 1)) for v in range(3, 5003)]
    solver = Solver()
    solver.new_vars(5002)
    meter = _CountingMeter()
    solver.add_gates(gates, meter)
    assert meter.checks == 3
    assert solver.num_clauses == 15000

    solver = Solver()
    solver.new_vars(5002)
    with pytest.raises(ZenBudgetExceeded):
        solver.add_gates(gates, _CountingMeter(trip_at=2))
    assert solver.num_clauses == 3 * 2048  # stopped between two chunks
    assert solver.solve()  # and is still a solver
