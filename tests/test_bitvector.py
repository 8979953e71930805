"""Exhaustive correctness tests for the bitvector circuit library.

Every arithmetic/comparison/shift circuit is checked against Python
integer semantics for all 4-bit operand pairs, on both Boolean
engines.  This pins down the bitblaster the whole "SMT" backend rests
on.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import BddBackend, SatBackend, const_bit
from repro.backends import bitvector as bv

WIDTH = 4
ALL_VALUES = range(1 << WIDTH)


def to_signed(value: int) -> int:
    return value - (1 << WIDTH) if value >= (1 << (WIDTH - 1)) else value


def eval_bits(backend, bits) -> int:
    out = 0
    for i, bit in enumerate(bits):
        if backend.is_true(bit):
            out |= 1 << i
        else:
            assert backend.is_false(bit), "constant inputs must fold"
    return out


def eval_bit(backend, bit) -> bool:
    if backend.is_true(bit):
        return True
    assert backend.is_false(bit)
    return False


@pytest.fixture(params=["sat", "bdd"])
def backend(request):
    return SatBackend() if request.param == "sat" else BddBackend()


class TestArithmetic:
    def test_add_exhaustive(self, backend):
        for a, b in itertools.product(ALL_VALUES, repeat=2):
            va = bv.const_vector(backend, a, WIDTH)
            vb = bv.const_vector(backend, b, WIDTH)
            assert eval_bits(backend, bv.add(backend, va, vb)) == (a + b) % 16

    def test_sub_exhaustive(self, backend):
        for a, b in itertools.product(ALL_VALUES, repeat=2):
            va = bv.const_vector(backend, a, WIDTH)
            vb = bv.const_vector(backend, b, WIDTH)
            assert eval_bits(backend, bv.sub(backend, va, vb)) == (a - b) % 16

    def test_mul_exhaustive(self, backend):
        for a, b in itertools.product(ALL_VALUES, repeat=2):
            va = bv.const_vector(backend, a, WIDTH)
            vb = bv.const_vector(backend, b, WIDTH)
            assert eval_bits(backend, bv.mul(backend, va, vb)) == (a * b) % 16

    def test_negate_exhaustive(self, backend):
        for a in ALL_VALUES:
            va = bv.const_vector(backend, a, WIDTH)
            assert eval_bits(backend, bv.negate(backend, va)) == (-a) % 16


class TestComparisons:
    def test_equal_exhaustive(self, backend):
        for a, b in itertools.product(ALL_VALUES, repeat=2):
            va = bv.const_vector(backend, a, WIDTH)
            vb = bv.const_vector(backend, b, WIDTH)
            assert eval_bit(backend, bv.equal(backend, va, vb)) == (a == b)

    def test_unsigned_less_exhaustive(self, backend):
        for a, b in itertools.product(ALL_VALUES, repeat=2):
            va = bv.const_vector(backend, a, WIDTH)
            vb = bv.const_vector(backend, b, WIDTH)
            assert eval_bit(
                backend, bv.less(backend, va, vb, signed=False)
            ) == (a < b)

    def test_signed_less_exhaustive(self, backend):
        for a, b in itertools.product(ALL_VALUES, repeat=2):
            va = bv.const_vector(backend, a, WIDTH)
            vb = bv.const_vector(backend, b, WIDTH)
            assert eval_bit(
                backend, bv.less(backend, va, vb, signed=True)
            ) == (to_signed(a) < to_signed(b))

    def test_less_equal_exhaustive(self, backend):
        for a, b in itertools.product(ALL_VALUES, repeat=2):
            va = bv.const_vector(backend, a, WIDTH)
            vb = bv.const_vector(backend, b, WIDTH)
            assert eval_bit(
                backend, bv.less_equal(backend, va, vb, signed=False)
            ) == (a <= b)


class TestShifts:
    def test_shift_left_const(self, backend):
        for a, amount in itertools.product(ALL_VALUES, range(WIDTH + 2)):
            va = bv.const_vector(backend, a, WIDTH)
            result = eval_bits(
                backend, bv.shift_left_const(backend, va, amount)
            )
            assert result == (a << amount) % 16

    def test_shift_right_const_logical(self, backend):
        for a, amount in itertools.product(ALL_VALUES, range(WIDTH + 2)):
            va = bv.const_vector(backend, a, WIDTH)
            result = eval_bits(
                backend,
                bv.shift_right_const(backend, va, amount, arithmetic=False),
            )
            assert result == a >> amount

    def test_shift_right_const_arithmetic(self, backend):
        for a, amount in itertools.product(ALL_VALUES, range(WIDTH + 2)):
            va = bv.const_vector(backend, a, WIDTH)
            result = eval_bits(
                backend,
                bv.shift_right_const(backend, va, amount, arithmetic=True),
            )
            expected = (to_signed(a) >> amount) % 16
            assert result == expected

    def test_barrel_shift_left_exhaustive(self, backend):
        for a, amount in itertools.product(ALL_VALUES, repeat=2):
            va = bv.const_vector(backend, a, WIDTH)
            vs = bv.const_vector(backend, amount, WIDTH)
            result = eval_bits(backend, bv.shift_left(backend, va, vs))
            assert result == (a << amount) % 16 if amount < 16 else 0

    def test_barrel_shift_right_exhaustive(self, backend):
        for a, amount in itertools.product(ALL_VALUES, repeat=2):
            va = bv.const_vector(backend, a, WIDTH)
            vs = bv.const_vector(backend, amount, WIDTH)
            logical = eval_bits(
                backend, bv.shift_right(backend, va, vs, arithmetic=False)
            )
            assert logical == (a >> amount if amount < WIDTH else 0)
            arith = eval_bits(
                backend, bv.shift_right(backend, va, vs, arithmetic=True)
            )
            expected = (
                to_signed(a) >> min(amount, WIDTH)
            ) % 16
            assert arith == expected


class TestBitwise:
    def test_pointwise_ops(self, backend):
        for a, b in itertools.product(ALL_VALUES, repeat=2):
            va = bv.const_vector(backend, a, WIDTH)
            vb = bv.const_vector(backend, b, WIDTH)
            assert eval_bits(backend, bv.bitwise_and(backend, va, vb)) == a & b
            assert eval_bits(backend, bv.bitwise_or(backend, va, vb)) == a | b
            assert eval_bits(backend, bv.bitwise_xor(backend, va, vb)) == a ^ b
            assert eval_bits(backend, bv.bitwise_not(backend, va)) == a ^ 15


class TestConversions:
    def test_to_int_unsigned(self):
        assert bv.to_int([True, False, True], signed=False) == 5

    def test_to_int_signed(self):
        assert bv.to_int([True, True, True], signed=True) == -1
        assert bv.to_int([False, True, True], signed=True) == -2
        assert bv.to_int([True, True, False], signed=True) == 3

    def test_to_int_empty(self):
        assert bv.to_int([], signed=False) == 0

    def test_const_vector_negative(self):
        backend = SatBackend()
        bits = bv.const_vector(backend, -1, 4)
        assert eval_bits(backend, bits) == 15


# ---------------------------------------------------------------------------
# Circuits with a constant operand, and the one n-ary conjunction
# ---------------------------------------------------------------------------


def signed_value(value: int, width: int) -> int:
    return value - (1 << width) if value >> (width - 1) else value


def partly_constant(backend, width, known_mask, known_bits):
    """A vector whose bits under `known_mask` are the constants of
    `known_bits` and whose other bits are fresh inputs."""
    return [
        const_bit(backend, bool((known_bits >> i) & 1))
        if (known_mask >> i) & 1
        else backend.fresh(f"x{i}")
        for i in range(width)
    ]


def equivalent(backend, a, b) -> bool:
    """Same Boolean function (BDD handles are canonical; SAT is asked)."""
    if isinstance(backend, BddBackend):
        return a == b
    return backend.solve(backend.xor(a, b)) is None


def value_at(backend, vector, assignment: int, bit) -> bool:
    """`bit` under the assignment that makes `vector` read `assignment`."""
    constraint = backend.and_many(
        [
            x if (assignment >> i) & 1 else backend.not_(x)
            for i, x in enumerate(vector)
        ]
    )
    model = backend.solve(constraint)
    assert model is not None, "the assignment respects the constant bits"
    return model.value(bit)


def constant_and_general(backend, vector, k, signed):
    """Every constant-operand circuit next to the circuit it stands for
    and the Python meaning of both (as a function of the vector's value)."""
    width = len(vector)
    kv = bv.const_vector(backend, k, width)
    read = (lambda v: signed_value(v, width)) if signed else (lambda v: v)
    kr = read(k & ((1 << width) - 1))
    return {
        "eq": (
            bv.equal_const(backend, vector, k),
            bv.equal(backend, vector, kv),
            lambda v: read(v) == kr,
        ),
        "gt": (
            bv.greater_const(backend, vector, k, signed, or_equal=False),
            bv.less(backend, kv, vector, signed),
            lambda v: read(v) > kr,
        ),
        "ge": (
            bv.greater_const(backend, vector, k, signed, or_equal=True),
            bv.less_equal(backend, kv, vector, signed),
            lambda v: read(v) >= kr,
        ),
    }


class TestConstantOperands:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("signed", [False, True])
    def test_exhaustive_on_constant_vectors(self, backend, width, signed):
        for a, k in itertools.product(range(1 << width), repeat=2):
            va = bv.const_vector(backend, a, width)
            assert eval_bits(backend, bv.and_const(backend, va, k)) == a & k
            for name, (const, general, meaning) in constant_and_general(
                backend, va, k, signed
            ).items():
                assert eval_bit(backend, const) == meaning(a), (name, a, k)
                assert eval_bit(backend, general) == meaning(a), (name, a, k)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("signed", [False, True])
    def test_exhaustive_on_symbolic_vectors(self, backend, width, signed):
        vector = partly_constant(backend, width, 0, 0)
        for k in range(1 << width):
            circuits = constant_and_general(backend, vector, k, signed)
            masked = bv.and_const(backend, vector, k)
            for a in range(1 << width):
                for name, (const, _, meaning) in circuits.items():
                    got = value_at(backend, vector, a, const)
                    assert got == meaning(a), (name, a, k)
                for i, bit in enumerate(masked):
                    assert value_at(backend, vector, a, bit) == bool(
                        ((a & k) >> i) & 1
                    )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), signed=st.booleans(), which=st.sampled_from(["sat", "bdd"]))
    def test_constant_path_is_the_general_path(self, data, signed, which):
        backend = SatBackend() if which == "sat" else BddBackend()
        width = data.draw(st.integers(1, 16))
        top = (1 << width) - 1
        known_mask = data.draw(st.integers(0, top))
        known_bits = data.draw(st.integers(0, top)) & known_mask
        # Constants arrive as Python ints of either sign.
        k = data.draw(st.integers(-(1 << (width - 1)) if signed else 0, top))
        a = (data.draw(st.integers(0, top)) & ~known_mask) | known_bits
        vector = partly_constant(backend, width, known_mask, known_bits)
        masked = bv.and_const(backend, vector, k)
        general = bv.bitwise_and(
            backend, vector, bv.const_vector(backend, k, width)
        )
        assert all(equivalent(backend, x, y) for x, y in zip(masked, general))
        for name, (const, general, meaning) in constant_and_general(
            backend, vector, k, signed
        ).items():
            assert equivalent(backend, const, general), name
            assert value_at(backend, vector, a, const) == meaning(a), name


class TestAndMany:
    def test_empty_and_constants(self, backend):
        x = backend.fresh("x")
        assert backend.is_true(backend.and_many([]))
        assert backend.is_true(backend.and_many([backend.true()]))
        assert backend.and_many([backend.true(), x, backend.true()]) == x
        assert backend.is_false(backend.and_many([x, backend.false(), x]))

    def test_literal_with_its_negation(self, backend):
        x, y = backend.fresh("x"), backend.fresh("y")
        conflict = backend.and_many([x, y, backend.not_(x)])
        assert backend.solve(conflict) is None

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), which=st.sampled_from(["sat", "bdd"]))
    def test_matches_the_left_fold(self, data, which):
        backend = SatBackend() if which == "sat" else BddBackend()
        xs = [backend.fresh(f"x{i}") for i in range(5)]
        pool = (
            [backend.true(), backend.false()]
            + xs
            + [backend.not_(x) for x in xs]
            + [
                backend.or_(xs[0], xs[3]),
                backend.xor(xs[1], xs[4]),
                backend.and_(xs[2], backend.not_(xs[0])),
                backend.ite(xs[4], xs[1], xs[2]),
            ]
        )
        # FALSE is drawn rarely, or every long list would be FALSE.
        picks = data.draw(
            st.lists(
                st.one_of(
                    st.integers(2, len(pool) - 1), st.integers(0, len(pool) - 1)
                ),
                max_size=10,
            )
        )
        operands = [pool[i] for i in picks]
        folded = backend.true()
        for bit in operands:
            folded = backend.and_(folded, bit)
        assert equivalent(backend, backend.and_many(operands), folded)
