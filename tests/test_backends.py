"""Tests for the evaluation backends.

The central property: for any expression and any concrete input, the
concrete interpreter, the SAT-backend symbolic evaluator, and the
BDD-backend symbolic evaluator all agree.  Hypothesis drives random
expressions and inputs through all three.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Bool,
    Byte,
    Int,
    UInt,
    UShort,
    Zen,
    ZList,
    ZMap,
    ZOption,
    constant,
    cons,
    create,
    if_,
    none,
    register_object,
    some,
    symbolic,
    zen_list,
)
from repro.backends import (
    BddBackend,
    ConcreteEvaluator,
    SatBackend,
    SymbolicEvaluator,
    decode,
)
from repro.backends import values as sv
from repro.errors import ZenEvaluationError
from repro.lang import expr as ex
from repro.lang import types as ty
from repro.lang.listops import (
    all_match,
    any_match,
    contains,
    find_first,
    fold,
    head_option,
    is_empty,
    length,
    map_contains_key,
    map_elements,
    map_get,
    map_set,
)
from tests.test_bitvector import equivalent


@register_object
@dataclass(frozen=True)
class Pair8:
    a: Byte
    b: Byte


def eval_concrete(z, **env):
    return ConcreteEvaluator(env).evaluate(z.expr)


def eval_symbolic(z, backend_name, env_types, concrete_env, max_len=4):
    """Evaluate symbolically with inputs constrained to concrete values,
    then decode the result through a model."""
    backend = SatBackend() if backend_name == "sat" else BddBackend()
    evaluator = SymbolicEvaluator(backend, max_list_length=max_len)
    constraint = backend.true()
    for name, annotation in env_types.items():
        zen_type = ty.from_annotation(annotation)
        value = evaluator.fresh_input(name, zen_type)
        enc = sv.from_constant(backend, zen_type, concrete_env[name])
        constraint = backend.and_(
            constraint, sv.equal(backend, value, enc)
        )
    result = evaluator.evaluate(z.expr)
    model = backend.solve(constraint)
    assert model is not None, "constraining inputs must be satisfiable"
    return decode(model, result)


def check_all_backends(z, env_types, concrete_env, max_len=4):
    """Assert all three evaluators agree; returns the concrete value."""
    expected = eval_concrete(z, **concrete_env)
    got_sat = eval_symbolic(z, "sat", env_types, concrete_env, max_len)
    got_bdd = eval_symbolic(z, "bdd", env_types, concrete_env, max_len)
    assert got_sat == expected, f"sat: {got_sat!r} != {expected!r}"
    assert got_bdd == expected, f"bdd: {got_bdd!r} != {expected!r}"
    return expected


class TestConcreteEvaluator:
    def test_arithmetic_wraps(self):
        x = symbolic(Byte, "x")
        assert eval_concrete(x + 1, x=255) == 0
        assert eval_concrete(x - 1, x=0) == 255
        assert eval_concrete(x * 2, x=200) == 144

    def test_signed_arithmetic(self):
        x = symbolic(Int, "x")
        assert eval_concrete(x + 1, x=2 ** 31 - 1) == -(2 ** 31)
        assert eval_concrete(-x, x=5) == -5
        assert eval_concrete(~x, x=0) == -1

    def test_comparisons(self):
        x = symbolic(Int, "x")
        assert eval_concrete(x < 0, x=-5) is True
        assert eval_concrete(x >= 0, x=-5) is False

    def test_shifts(self):
        x = symbolic(Byte, "x")
        assert eval_concrete(x << 1, x=0x81) == 0x02
        assert eval_concrete(x >> 1, x=0x81) == 0x40
        y = symbolic(Int, "y")
        assert eval_concrete(y >> 1, y=-2) == -1  # arithmetic shift

    def test_shift_overflow_amount(self):
        x = symbolic(Byte, "x")
        big = symbolic(Byte, "s")
        assert eval_concrete(x << big, x=1, s=9) == 0
        assert eval_concrete(x >> big, x=255, s=200) == 0

    def test_if_laziness_is_semantically_invisible(self):
        x = symbolic(Bool, "x")
        z = if_(x, constant(1, Byte), constant(2, Byte))
        assert eval_concrete(z, x=True) == 1
        assert eval_concrete(z, x=False) == 2

    def test_objects(self):
        p = symbolic(Pair8, "p")
        assert eval_concrete(p.a, p=Pair8(3, 4)) == 3
        assert eval_concrete(p.with_field("a", 9), p=Pair8(3, 4)) == Pair8(9, 4)

    def test_option_value_of_none_is_default(self):
        o = symbolic(ZOption[Byte], "o")
        assert eval_concrete(o.value(), o=None) == 0
        assert eval_concrete(o.value(), o=7) == 7
        assert eval_concrete(o.has_value(), o=None) is False
        assert eval_concrete(o.value_or(42), o=None) == 42

    def test_unbound_variable(self):
        x = symbolic(Byte, "x")
        with pytest.raises(ZenEvaluationError):
            eval_concrete(x + 1)

    def test_deep_if_chain_no_stack_overflow(self):
        x = symbolic(UInt, "x")
        z = constant(0, UInt)
        for i in range(30000):
            z = if_(x == i, constant(i % 97, UInt), z)
        assert eval_concrete(z, x=5) == 5
        assert eval_concrete(z, x=29999) == 29999 % 97

    def test_tuple_eval(self):
        x = symbolic(Byte, "x")
        from repro import pair

        t = pair(x, x + 1)
        assert eval_concrete(t[1], x=9) == 10

    def test_lifted_session_isolation(self):
        ev1 = ConcreteEvaluator({})
        lifted = ex.Lifted(5, ty.BYTE, ev1)
        ev2 = ConcreteEvaluator({})
        with pytest.raises(ZenEvaluationError):
            ev2.evaluate(lifted)


class TestListOps:
    def test_length_and_contains(self):
        lst = symbolic(ZList[Byte], "l")
        assert eval_concrete(length(lst), l=[1, 2, 3]) == 3
        assert eval_concrete(contains(lst, constant(2, Byte)), l=[1, 2]) is True
        assert eval_concrete(contains(lst, constant(9, Byte)), l=[1, 2]) is False

    def test_fold_sum(self):
        lst = symbolic(ZList[Byte], "l")
        total = fold(lst, constant(0, Byte), lambda h, acc: h + acc)
        assert eval_concrete(total, l=[1, 2, 3]) == 6

    def test_any_all(self):
        lst = symbolic(ZList[Byte], "l")
        assert eval_concrete(any_match(lst, lambda x: x > 2), l=[1, 3]) is True
        assert eval_concrete(all_match(lst, lambda x: x > 2), l=[1, 3]) is False
        assert eval_concrete(all_match(lst, lambda x: x > 0), l=[1, 3]) is True
        assert eval_concrete(any_match(lst, lambda x: x > 2), l=[]) is False
        assert eval_concrete(all_match(lst, lambda x: x > 2), l=[]) is True

    def test_head_and_find(self):
        lst = symbolic(ZList[Byte], "l")
        assert eval_concrete(head_option(lst), l=[]) is None
        assert eval_concrete(head_option(lst), l=[5]) == 5
        first_big = find_first(lst, lambda x: x > 3)
        assert eval_concrete(first_big, l=[1, 4, 9]) == 4

    def test_map_elements(self):
        lst = symbolic(ZList[Byte], "l")
        doubled = map_elements(lst, lambda x: x * 2)
        assert eval_concrete(doubled, l=[1, 2]) == [2, 4]

    def test_is_empty(self):
        lst = symbolic(ZList[Byte], "l")
        assert eval_concrete(is_empty(lst), l=[]) is True
        assert eval_concrete(is_empty(lst), l=[0]) is False

    def test_zen_map_ops(self):
        m = symbolic(ZMap[Byte, Bool], "m")
        assert eval_concrete(map_get(m, constant(1, Byte)), m={1: True}) is True
        assert eval_concrete(map_get(m, constant(2, Byte)), m={1: True}) is None
        assert (
            eval_concrete(map_contains_key(m, constant(1, Byte)), m={1: False})
            is True
        )
        updated = map_set(m, constant(2, Byte), True)
        assert eval_concrete(updated, m={1: False}) == {1: False, 2: True}

    def test_map_set_overwrites(self):
        m = symbolic(ZMap[Byte, Bool], "m")
        updated = map_set(m, constant(1, Byte), True)
        assert eval_concrete(updated, m={1: False}) == {1: True}


class TestBackendAgreement:
    def test_simple_arith(self):
        x = symbolic(Byte, "x")
        check_all_backends(
            (x + 3) * 2 - 1, {"x": Byte}, {"x": 100}
        )

    def test_bitwise_mix(self):
        x = symbolic(UShort, "x")
        y = symbolic(UShort, "y")
        z = ((x & y) | (~x ^ y)) + (x >> 3) + (y << 2)
        check_all_backends(z, {"x": UShort, "y": UShort}, {"x": 0xABCD, "y": 0x1234})

    def test_signed_comparisons(self):
        x = symbolic(Int, "x")
        z = if_(x < 0, -x, x)
        assert check_all_backends(z, {"x": Int}, {"x": -17}) == 17

    def test_symbolic_shift_amounts(self):
        # Byte-width only: an n-bit barrel shifter with a *symbolic*
        # amount is an exponentially large BDD for n = 32, so wide
        # symbolic shifts are exercised on the SAT backend elsewhere.
        x = symbolic(Byte, "x")
        s = symbolic(Byte, "s")
        check_all_backends(x << s, {"x": Byte, "s": Byte}, {"x": 0x5A, "s": 3})
        check_all_backends(x >> s, {"x": Byte, "s": Byte}, {"x": 0x5A, "s": 200})
        from repro import SByte

        y = symbolic(SByte, "y")
        t = symbolic(SByte, "t")
        check_all_backends(
            y >> t, {"y": SByte, "t": SByte}, {"y": -104, "t": 4}
        )

    def test_option_roundtrip(self):
        o = symbolic(ZOption[Byte], "o")
        z = if_(o.has_value(), o.value() + 1, constant(0, Byte))
        assert check_all_backends(z, {"o": ZOption[Byte]}, {"o": 41}) == 42
        assert check_all_backends(z, {"o": ZOption[Byte]}, {"o": None}) == 0

    def test_list_sum_symbolic(self):
        lst = symbolic(ZList[Byte], "l")
        total = fold(lst, constant(0, Byte), lambda h, acc: h + acc)
        assert (
            check_all_backends(total, {"l": ZList[Byte]}, {"l": [1, 2, 3]}) == 6
        )
        assert check_all_backends(total, {"l": ZList[Byte]}, {"l": []}) == 0

    def test_list_structure_result(self):
        lst = symbolic(ZList[Byte], "l")
        grown = cons(constant(9, Byte), map_elements(lst, lambda x: x + 1))
        assert check_all_backends(
            grown, {"l": ZList[Byte]}, {"l": [1, 2]}
        ) == [9, 2, 3]

    def test_object_rebuild(self):
        p = symbolic(Pair8, "p")
        z = create(Pair8, a=p.b, b=p.a)
        assert check_all_backends(z, {"p": Pair8}, {"p": Pair8(1, 2)}) == Pair8(2, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 255),
        st.integers(0, 255),
        st.sampled_from(["add", "sub", "mul", "band", "bor", "bxor", "lt", "eq"]),
    )
    def test_random_byte_ops(self, a, b, op):
        x = symbolic(Byte, "x")
        y = symbolic(Byte, "y")
        table = {
            "add": x + y,
            "sub": x - y,
            "mul": x * y,
            "band": x & y,
            "bor": x | y,
            "bxor": x ^ y,
            "lt": x < y,
            "eq": x == y,
        }
        check_all_backends(table[op], {"x": Byte, "y": Byte}, {"x": a, "y": b})

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 255), max_size=4))
    def test_random_list_length(self, items):
        lst = symbolic(ZList[Byte], "l")
        assert (
            check_all_backends(length(lst), {"l": ZList[Byte]}, {"l": items})
            == len(items)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-128, 127), max_size=3),
        st.integers(-128, 127),
    )
    def test_random_contains(self, items, needle):
        from repro import SByte

        lst = symbolic(ZList[SByte], "l")
        z = contains(lst, constant(needle, SByte))
        assert check_all_backends(
            z, {"l": ZList[SByte]}, {"l": items}
        ) == (needle in items)


class TestSymbolicValues:
    def test_merge_type_mismatch(self):
        backend = SatBackend()
        a = sv.from_constant(backend, ty.BYTE, 1)
        b = sv.from_constant(backend, ty.BOOL, True)
        bit = backend.fresh("c")
        with pytest.raises(ZenEvaluationError):
            sv.merge(backend, bit, a, b)

    def test_merge_list_padding(self):
        backend = SatBackend()
        t = ty.ListType(ty.BYTE)
        short = sv.from_constant(backend, t, [1])
        long = sv.from_constant(backend, t, [1, 2, 3])
        c = backend.fresh("c")
        merged = sv.merge(backend, c, short, long)
        assert len(merged.cells) == 3

    def test_fresh_list_guards_monotone(self):
        backend = SatBackend()
        value = sv.fresh(backend, ty.ListType(ty.BOOL), "l", 4)
        # Guard i implies guard i-1 for every model: check via solver.
        for i in range(1, 4):
            gi = value.cells[i][0]
            gprev = value.cells[i - 1][0]
            bad = backend.and_(gi, backend.not_(gprev))
            assert backend.solve(bad) is None

    def test_decode_map(self):
        backend = SatBackend()
        t = ty.MapType(ty.BYTE, ty.BOOL)
        value = sv.from_constant(backend, t, {1: True, 2: False})
        model = backend.solve(backend.true())
        assert sv.decode(model, value) == {1: True, 2: False}

    def test_input_bits_deterministic(self):
        backend = SatBackend()
        value = sv.fresh(backend, ty.from_annotation(Pair8), "p", 4)
        bits1 = sv.input_bits(value)
        bits2 = sv.input_bits(value)
        assert bits1 == bits2
        assert len(bits1) == 16


# ---------------------------------------------------------------------------
# What the compiler knows: constant operands, and comparisons pushed
# through if-chains with constant branches
# ---------------------------------------------------------------------------

_CONSTANT_OPS = {
    "band": operator.and_,
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


def _engine(name):
    return SatBackend() if name == "sat" else BddBackend()


def _same_function(backend, a: sv.SymValue, b: sv.SymValue) -> bool:
    """Bit for bit the same Boolean functions."""
    bits_a = [a.bit] if isinstance(a, sv.SymBool) else a.bits
    bits_b = [b.bit] if isinstance(b, sv.SymBool) else b.bits
    assert len(bits_a) == len(bits_b)
    return all(equivalent(backend, x, y) for x, y in zip(bits_a, bits_b))


def _not_a_constant(evaluator, backend, value, zen_type):
    """`value` as a node the evaluator cannot see through: what it is
    compared with takes the general, symbolic-symbolic circuits."""
    payload = sv.from_constant(backend, zen_type, value)
    return Zen(ex.Lifted(payload, zen_type, evaluator))


def _int_range(int_type):
    if int_type.signed:
        return range(-(1 << (int_type.width - 1)), 1 << (int_type.width - 1))
    return range(1 << int_type.width)


def _apply(op, operand, k, constant_left):
    fn = _CONSTANT_OPS[op]
    return fn(k, operand) if constant_left else fn(operand, k)


class TestConstantOperands:
    """`x op k` with an ``ex.Constant`` k never expands k into bits; it
    must still mean what the symbolic-symbolic circuit and Python mean."""

    @pytest.mark.parametrize("backend_name", ["sat", "bdd"])
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_exhaustive_up_to_four_bits(self, backend_name, signed, width):
        int_type = ty.IntType(width, signed)
        backend = _engine(backend_name)
        evaluator = SymbolicEvaluator(backend)
        x = symbolic(int_type, "x")
        value = evaluator.fresh_input("x", int_type)
        compiled = []
        for op, k, left in itertools.product(
            _CONSTANT_OPS, _int_range(int_type), (False, True)
        ):
            z = _apply(op, x, constant(k, int_type), left)
            assert isinstance(z.expr, ex.Binary) and z.expr.op == op
            compiled.append((z, evaluator.evaluate(z.expr)))
        # Solved last: a SAT model covers the circuit that existed then.
        for a in _int_range(int_type):
            model = backend.solve(
                sv.equal(backend, value, sv.from_constant(backend, int_type, a))
            )
            for z, got in compiled:
                assert decode(model, got) == eval_concrete(z, x=a), (z, a)

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        op=st.sampled_from(sorted(_CONSTANT_OPS)),
        constant_left=st.booleans(),
        signed=st.booleans(),
        backend_name=st.sampled_from(["sat", "bdd"]),
    )
    def test_constant_path_is_the_general_path(
        self, data, op, constant_left, signed, backend_name
    ):
        int_type = ty.IntType(data.draw(st.integers(1, 16)), signed)
        values = st.integers(_int_range(int_type)[0], _int_range(int_type)[-1])
        k, mask, a = data.draw(values), data.draw(values), data.draw(values)
        backend = _engine(backend_name)
        evaluator = SymbolicEvaluator(backend)
        x = symbolic(int_type, "x")
        value = evaluator.fresh_input("x", int_type)
        operand = x & mask  # bits partly constant, as a prefix match has them
        z = _apply(op, operand, constant(k, int_type), constant_left)
        general = _apply(
            op,
            operand,
            _not_a_constant(evaluator, backend, k, int_type),
            constant_left,
        )
        got = evaluator.evaluate(z.expr)
        assert _same_function(backend, got, evaluator.evaluate(general.expr))
        model = backend.solve(
            sv.equal(backend, value, sv.from_constant(backend, int_type, a))
        )
        assert decode(model, got) == eval_concrete(z, x=a)

    @pytest.mark.parametrize("backend_name", ["sat", "bdd"])
    def test_no_vector_is_built_for_the_constant(self, backend_name, monkeypatch):
        from repro.backends import bitvector as bv

        built = []
        original = bv.const_vector
        monkeypatch.setattr(
            bv, "const_vector", lambda *args: built.append(args) or original(*args)
        )
        backend = _engine(backend_name)
        evaluator = SymbolicEvaluator(backend)
        evaluator.fresh_input("x", ty.from_annotation(Int))
        x = symbolic(Int, "x")
        for op in _CONSTANT_OPS:
            for left in (False, True):
                evaluator.evaluate(_apply(op, x, constant(-7, Int), left).expr)
        assert built == []
        evaluator.evaluate((x + 1).expr)  # the spy does see a vector
        assert len(built) == 1


Tiny = ty.IntType(3, False)


class TestComparisonPushedThroughIf:
    """``If(c, Constant a, e) op k`` compiles as ``If(c, a op k, e op k)``."""

    INPUTS = {"c": Bool, "d": Bool, "b": Bool, "y": Tiny}

    def _setup(self, backend_name):
        backend = _engine(backend_name)
        evaluator = SymbolicEvaluator(backend)
        for name, annotation in self.INPUTS.items():
            evaluator.fresh_input(name, ty.from_annotation(annotation))
        return backend, evaluator, {
            name: symbolic(t, name) for name, t in self.INPUTS.items()
        }

    def _unpushed(self, evaluator, chain):
        """The chain as an already merged value: nothing to push into."""
        return Zen(
            ex.Lifted(evaluator.evaluate(chain.expr), chain.type, evaluator)
        )

    def _chains(self, v):
        c, d, b, y = v["c"], v["d"], v["b"], v["y"]
        k = lambda value: constant(value, Tiny)  # noqa: E731
        return {
            "tail-not-constant": if_(c, 3, if_(d, 5, y)),
            "constant-in-else": if_(c, y + 1, if_(d, y, 6)),
            "all-constant": if_(c, k(1), if_(d, k(2), if_(b, k(2), k(0)))),
            "nested-in-then": if_(c, if_(d, k(1), k(2)), k(3)),
            "nested-both": if_(c, if_(d, 1, y), if_(b, y, 4)),
        }

    @pytest.mark.parametrize("backend_name", ["sat", "bdd"])
    def test_pushed_is_the_unpushed_comparison(self, backend_name):
        backend, evaluator, v = self._setup(backend_name)
        for name, chain in self._chains(v).items():
            reference = self._unpushed(evaluator, chain)
            for op, k, left in itertools.product(
                ("eq", "ne", "lt", "le", "gt", "ge"), range(8), (False, True)
            ):
                pushed = _apply(op, chain, constant(k, Tiny), left)
                plain = _apply(op, reference, constant(k, Tiny), left)
                assert _same_function(
                    backend,
                    evaluator.evaluate(pushed.expr),
                    evaluator.evaluate(plain.expr),
                ), (name, op, k, left)

    @settings(max_examples=40, deadline=None)
    @given(
        which=st.sampled_from(
            ["tail-not-constant", "constant-in-else", "nested-in-then", "nested-both"]
        ),
        op=st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
        k=st.integers(0, 7),
        left=st.booleans(),
        c=st.booleans(),
        d=st.booleans(),
        b=st.booleans(),
        y=st.integers(0, 7),
    )
    def test_agrees_with_the_concrete_evaluator(self, which, op, k, left, c, d, b, y):
        chain = self._chains(
            {name: symbolic(t, name) for name, t in self.INPUTS.items()}
        )[which]
        check_all_backends(
            _apply(op, chain, constant(k, Tiny), left),
            self.INPUTS,
            {"c": c, "d": d, "b": b, "y": y},
        )

    @pytest.mark.parametrize("backend_name", ["sat", "bdd"])
    def test_boolean_chain(self, backend_name):
        backend, evaluator, v = self._setup(backend_name)
        chain = if_(v["c"], constant(True, Bool), if_(v["d"], False, v["b"]))
        reference = self._unpushed(evaluator, chain)
        for op, k in itertools.product(("eq", "ne"), (False, True)):
            pushed = _apply(op, chain, constant(k, Bool), False)
            assert isinstance(pushed.expr.left, ex.If)
            assert _same_function(
                backend,
                evaluator.evaluate(pushed.expr),
                evaluator.evaluate(_apply(op, reference, k, False).expr),
            )

    def test_one_chain_two_constants_stays_shared(self):
        backend, evaluator, v = self._setup("bdd")
        chain = if_(v["c"], 3, if_(v["d"], 5, if_(v["b"], 3, v["y"])))
        reference = self._unpushed(evaluator, chain)
        first, again, other = chain == 3, chain == 3, chain == 5
        assert first.expr is not again.expr
        bits = [evaluator.evaluate(z.expr).bit for z in (first, again, other)]
        assert bits[0] == bits[1] != bits[2]
        assert bits[0] == evaluator.evaluate((reference == 3).expr).bit
        assert bits[2] == evaluator.evaluate((reference == 5).expr).bit
        # One rewritten `if` per (if node, op, constant): the second
        # `== 3` found the first one's, `== 5` made its own three.
        assert len(evaluator._pushed) == 6

    @pytest.mark.parametrize("backend_name", ["sat", "bdd"])
    def test_deep_chain_is_iterative_and_builds_no_register(
        self, backend_name, monkeypatch
    ):
        merged_ints = []
        original = sv.merge

        def spy(backend, cond, then, orelse):
            if isinstance(then, sv.SymInt):
                merged_ints.append(then)
            return original(backend, cond, then, orelse)

        monkeypatch.setattr(sv, "merge", spy)
        backend = _engine(backend_name)
        evaluator = SymbolicEvaluator(backend)
        evaluator.fresh_input("x", ty.from_annotation(UShort))
        x = symbolic(UShort, "x")
        chain = constant(0, UShort)
        for i in reversed(range(3000)):
            chain = if_(x == i, constant(i + 1, UShort), chain)
        found = evaluator.evaluate((chain == 3000).expr)
        assert merged_ints == []
        model = backend.solve(found.bit)
        assert decode(model, evaluator.evaluate(x.expr)) == 2999

    def test_dead_branch_is_never_expanded(self):
        backend = BddBackend()
        evaluator = SymbolicEvaluator(backend)
        unbound = symbolic(Tiny, "never-bound")
        with pytest.raises(ZenEvaluationError):
            evaluator.evaluate((unbound == 1).expr)
        live = if_(constant(True, Bool), constant(1, Tiny), unbound) == 1
        assert backend.is_true(evaluator.evaluate(live.expr).bit)


class TestNaryLogic:
    """A tree of one logical op is conjoined once, whatever its shape."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.recursive(
            st.integers(0, 5),
            lambda sub: st.tuples(st.sampled_from(["and", "or"]), sub, sub),
            max_leaves=12,
        ),
        inputs=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_trees_agree_with_the_concrete_evaluator(self, shape, inputs):
        names = ["p", "q", "r", "s"]
        vs = [symbolic(Bool, n) for n in names]
        leaves = vs + [constant(True, Bool), ~vs[0]]
        shared = {}

        def build(term):
            if isinstance(term, int):
                return leaves[term]
            if term not in shared:  # equal subtrees are one shared node
                op, left, right = term
                a, b = build(left), build(right)
                shared[term] = a & b if op == "and" else a | b
            return shared[term]

        check_all_backends(
            build(shape), dict.fromkeys(names, Bool), dict(zip(names, inputs))
        )

    def test_left_fold_of_a_thousand_conjuncts(self):
        backend = BddBackend()
        evaluator = SymbolicEvaluator(backend)
        evaluator.fresh_input("x", ty.from_annotation(UShort))
        x = symbolic(UShort, "x")
        z = x != 0
        for i in range(1, 1000):
            z = z & (x != i)
        found = evaluator.evaluate(z.expr)
        # Only the root of the tree was evaluated, none of the 998
        # partial conjunctions under it.
        inner = z.expr.left
        assert isinstance(inner, ex.Binary) and inner.op == "and"
        assert inner not in evaluator._memo
        model = backend.solve(found.bit)
        assert decode(model, evaluator.evaluate(x.expr)) >= 1000
