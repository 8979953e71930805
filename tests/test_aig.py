"""Tests for the and-inverter graph and its Tseitin encoding."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import FALSE_LIT, TRUE_LIT, Aig, encode, to_cnf
from repro.errors import ZenSolverError
from repro.sat import Solver


class TestConstruction:
    def test_constants(self):
        g = Aig()
        assert g.and_(TRUE_LIT, TRUE_LIT) == TRUE_LIT
        assert g.and_(TRUE_LIT, FALSE_LIT) == FALSE_LIT
        assert g.or_(FALSE_LIT, FALSE_LIT) == FALSE_LIT
        assert g.or_(TRUE_LIT, FALSE_LIT) == TRUE_LIT

    def test_identity_rules(self):
        g = Aig()
        x = g.new_input()
        assert g.and_(x, TRUE_LIT) == x
        assert g.and_(x, FALSE_LIT) == FALSE_LIT
        assert g.and_(x, x) == x
        assert g.and_(x, g.negate(x)) == FALSE_LIT
        assert g.or_(x, FALSE_LIT) == x
        assert g.or_(x, TRUE_LIT) == TRUE_LIT

    def test_structural_sharing(self):
        g = Aig()
        x, y = g.new_input(), g.new_input()
        n1 = g.and_(x, y)
        n2 = g.and_(y, x)
        assert n1 == n2
        assert g.num_nodes == 4  # const + 2 inputs + 1 gate

    def test_double_negation(self):
        g = Aig()
        x = g.new_input()
        assert g.not_(g.not_(x)) == x

    def test_ite_simplifications(self):
        g = Aig()
        x, y = g.new_input(), g.new_input()
        assert g.ite(TRUE_LIT, x, y) == x
        assert g.ite(FALSE_LIT, x, y) == y
        assert g.ite(x, y, y) == y

    def test_and_many_empty(self):
        g = Aig()
        assert g.and_many([]) == TRUE_LIT
        assert g.or_many([]) == FALSE_LIT

    def test_fanin_of_input_raises(self):
        g = Aig()
        x = g.new_input()
        with pytest.raises(ZenSolverError):
            g.fanin(x)

    def test_support(self):
        g = Aig()
        x, y, z = g.new_input(), g.new_input(), g.new_input()
        out = g.and_(x, y)
        assert set(g.support([out])) == {x, y}
        assert z not in g.support([out])


class TestSimulation:
    @pytest.mark.parametrize("va", [False, True])
    @pytest.mark.parametrize("vb", [False, True])
    def test_gate_semantics(self, va, vb):
        g = Aig()
        x, y = g.new_input(), g.new_input()
        env = {x: va, y: vb}
        gates = {
            g.and_(x, y): va and vb,
            g.or_(x, y): va or vb,
            g.xor(x, y): va != vb,
            g.iff(x, y): va == vb,
            g.implies(x, y): (not va) or vb,
        }
        sim = g.simulate(env)
        for lit, expected in gates.items():
            assert sim[lit] == expected

    def test_simulate_after_build(self):
        # Gates created after a simulate call need a fresh simulate.
        g = Aig()
        x, y = g.new_input(), g.new_input()
        a = g.and_(x, y)
        sim = g.simulate({x: True, y: True})
        assert sim[a]
        b = g.xor(x, y)
        sim2 = g.simulate({x: True, y: True})
        assert not sim2[b]

    def test_missing_inputs_default_false(self):
        g = Aig()
        x = g.new_input()
        assert not g.eval_literal(x, {})

    @pytest.mark.parametrize("vc", [False, True])
    def test_ite_semantics(self, vc):
        g = Aig()
        c, t, e = g.new_input(), g.new_input(), g.new_input()
        out = g.ite(c, t, e)
        for vt, ve in itertools.product([False, True], repeat=2):
            result = g.eval_literal(out, {c: vc, t: vt, e: ve})
            assert result == (vt if vc else ve)


class TestTseitin:
    def solve_root(self, g: Aig, root: int):
        mapping, _ = encode(g, [root])
        sat = mapping.solver.solve()
        return sat, mapping

    def test_sat_simple(self):
        g = Aig()
        x, y = g.new_input(), g.new_input()
        root = g.and_(x, g.not_(y))
        sat, mapping = self.solve_root(g, root)
        assert sat
        assert mapping.model_value(x)
        assert not mapping.model_value(y)

    def test_unsat_contradiction(self):
        g = Aig()
        x = g.new_input()
        root = g.and_(x, g.not_(x))
        assert root == FALSE_LIT
        sat, _ = self.solve_root(g, root)
        assert not sat

    def test_true_root_is_sat(self):
        g = Aig()
        sat, _ = self.solve_root(g, TRUE_LIT)
        assert sat

    def test_xor_chain_parity(self):
        g = Aig()
        xs = [g.new_input() for _ in range(5)]
        parity = xs[0]
        for x in xs[1:]:
            parity = g.xor(parity, x)
        sat, mapping = self.solve_root(g, parity)
        assert sat
        values = [mapping.model_value(x) for x in xs]
        assert sum(values) % 2 == 1

    def test_to_cnf_export(self):
        g = Aig()
        x, y = g.new_input(), g.new_input()
        root = g.or_(x, y)
        num_vars, clauses, input_map = to_cnf(g, root)
        assert num_vars >= 2
        assert clauses
        assert set(input_map) == {x, y}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_circuit_sat_model_replays(self, data):
        """Any model found by SAT must replay to True in the simulator."""
        g = Aig()
        inputs = [g.new_input() for _ in range(4)]
        pool = list(inputs)
        for _ in range(data.draw(st.integers(1, 12))):
            op = data.draw(st.sampled_from(["and", "or", "xor", "not", "ite"]))
            a = data.draw(st.sampled_from(pool))
            b = data.draw(st.sampled_from(pool))
            if op == "and":
                pool.append(g.and_(a, b))
            elif op == "or":
                pool.append(g.or_(a, b))
            elif op == "xor":
                pool.append(g.xor(a, b))
            elif op == "not":
                pool.append(g.not_(a))
            else:
                c = data.draw(st.sampled_from(pool))
                pool.append(g.ite(c, a, b))
        root = pool[-1]
        mapping, _ = encode(g, [root])
        if mapping.solver.solve():
            env = {x: mapping.model_value(x) for x in inputs}
            assert g.eval_literal(root, env)
        else:
            # UNSAT: exhaustive check over 4 inputs confirms no model.
            for bits in itertools.product([False, True], repeat=4):
                env = dict(zip(inputs, bits))
                assert not g.eval_literal(root, env)

    def test_multiple_roots_conjunction(self):
        g = Aig()
        x, y = g.new_input(), g.new_input()
        mapping, _ = encode(g, [x, g.not_(y)])
        assert mapping.solver.solve()
        assert mapping.model_value(x)
        assert not mapping.model_value(y)

    def test_false_root_among_roots(self):
        g = Aig()
        x = g.new_input()
        mapping, _ = encode(g, [x, FALSE_LIT])
        assert not mapping.solver.solve()

    def test_out_of_cone_literals_read_as_the_simulator_defaults_them(self):
        """An input the encoding never saw is False and its negation
        True (both used to read False), and a gate without a variable
        is worked out from its fanins, not defaulted."""
        g = Aig()
        x, y = g.new_input(), g.new_input()
        gate = g.and_(x, g.not_(y))
        mapping, _ = encode(g, [x])
        assert mapping.solver.solve()
        assert mapping.model_value(y) is False
        assert mapping.model_value(y ^ 1) is True
        assert mapping.model_value(gate) is True
        assert mapping.model_value(gate ^ 1) is False
        later = g.new_input()  # created after the encoding
        assert mapping.solver_literal(later) is None
        assert mapping.model_value(later ^ 1) is True
