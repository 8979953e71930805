"""Bitvector circuits over an abstract Boolean backend.

The paper's SMT backend "encodes all primitive operations using the
theory of bitvectors before bitblasting"; this module is that encoding,
shared by the SAT and BDD backends.  Vectors are lists of bits, least
significant bit first.
"""

from __future__ import annotations

from typing import List, Sequence

from .interface import Bit, BoolBackend, const_bit


def const_vector(backend: BoolBackend, value: int, width: int) -> List[Bit]:
    """Encode a (possibly negative) Python int as constant bits."""
    masked = value & ((1 << width) - 1)
    return [
        const_bit(backend, bool((masked >> i) & 1)) for i in range(width)
    ]


def to_int(bits: Sequence[bool], signed: bool) -> int:
    """Decode a list of Booleans (LSB first) into a Python int."""
    value = sum(1 << i for i, b in enumerate(bits) if b)
    if signed and bits and bits[-1]:
        value -= 1 << len(bits)
    return value


def bitwise_and(backend: BoolBackend, a, b) -> List[Bit]:
    """Pointwise AND."""
    return [backend.and_(x, y) for x, y in zip(a, b)]


def bitwise_or(backend: BoolBackend, a, b) -> List[Bit]:
    """Pointwise OR."""
    return [backend.or_(x, y) for x, y in zip(a, b)]


def bitwise_xor(backend: BoolBackend, a, b) -> List[Bit]:
    """Pointwise XOR."""
    return [backend.xor(x, y) for x, y in zip(a, b)]


def bitwise_not(backend: BoolBackend, a) -> List[Bit]:
    """Pointwise complement."""
    return [backend.not_(x) for x in a]


def add(backend: BoolBackend, a, b) -> List[Bit]:
    """Ripple-carry addition, wrapping at the vector width."""
    out: List[Bit] = []
    carry = backend.false()
    for x, y in zip(a, b):
        xor_xy = backend.xor(x, y)
        out.append(backend.xor(xor_xy, carry))
        carry = backend.or_(
            backend.and_(x, y), backend.and_(xor_xy, carry)
        )
    return out


def negate(backend: BoolBackend, a) -> List[Bit]:
    """Two's-complement negation."""
    return add(
        backend,
        bitwise_not(backend, a),
        const_vector(backend, 1, len(a)),
    )


def sub(backend: BoolBackend, a, b) -> List[Bit]:
    """Subtraction via a + (-b)."""
    out: List[Bit] = []
    borrow = backend.false()
    for x, y in zip(a, b):
        xor_xy = backend.xor(x, y)
        out.append(backend.xor(xor_xy, borrow))
        borrow = backend.or_(
            backend.and_(backend.not_(x), y),
            backend.and_(backend.not_(xor_xy), borrow),
        )
    return out


def mul(backend: BoolBackend, a, b) -> List[Bit]:
    """Shift-and-add multiplication, truncated to the vector width."""
    width = len(a)
    acc = const_vector(backend, 0, width)
    for i, bit in enumerate(b):
        # Partial product: a << i, gated by b's bit i.
        partial = [backend.false()] * i + [
            backend.and_(bit, a[j]) for j in range(width - i)
        ]
        acc = add(backend, acc, partial)
    return acc


def equal(backend: BoolBackend, a, b) -> Bit:
    """Vector equality."""
    return backend.and_many([backend.iff(x, y) for x, y in zip(a, b)])


def unsigned_less(backend: BoolBackend, a, b) -> Bit:
    """Unsigned a < b (ripple from the most significant bit)."""
    result = backend.false()
    for x, y in zip(a, b):  # LSB to MSB; later bits dominate
        lt = backend.and_(backend.not_(x), y)
        eq = backend.iff(x, y)
        result = backend.or_(lt, backend.and_(eq, result))
    return result


def less(backend: BoolBackend, a, b, signed: bool) -> Bit:
    """Signed or unsigned a < b.

    Signed comparison flips the sign bits and compares unsigned.
    """
    if not signed:
        return unsigned_less(backend, a, b)
    a2 = list(a[:-1]) + [backend.not_(a[-1])]
    b2 = list(b[:-1]) + [backend.not_(b[-1])]
    return unsigned_less(backend, a2, b2)


def less_equal(backend: BoolBackend, a, b, signed: bool) -> Bit:
    """a <= b."""
    return backend.not_(less(backend, b, a, signed))


# Circuits with one operand a Python int: the constant selects, per bit,
# which gate to emit, and is never expanded into constant bits.  Negative
# values read as two's complement (``>>`` on a Python int is arithmetic).


def and_const(backend: BoolBackend, a, value: int) -> List[Bit]:
    """Pointwise AND with a constant: a mask selects bits."""
    false = backend.false()
    return [x if (value >> i) & 1 else false for i, x in enumerate(a)]


def equal_const(backend: BoolBackend, a, value: int) -> Bit:
    """Equality with a constant: one conjunction of literals."""
    return backend.and_many(
        [x if (value >> i) & 1 else backend.not_(x) for i, x in enumerate(a)]
    )


def greater_const(
    backend: BoolBackend, a, value: int, signed: bool, or_equal: bool
) -> Bit:
    """a > value (a >= value with `or_equal`), one gate per bit.

    Ripples up from the LSB: where the constant's bit is clear a set
    bit of `a` decides "greater" and a clear one defers to the lower
    bits; where it is set, a clear bit decides "not greater".  Only the
    verdict on equal vectors tells the two orders apart.
    """
    result = const_bit(backend, or_equal)
    sign = len(a) - 1 if signed else -1
    for i, x in enumerate(a):
        bit = (value >> i) & 1
        if i == sign:  # signed order is unsigned order, sign bits flipped
            x = backend.not_(x)
            bit ^= 1
        result = backend.and_(x, result) if bit else backend.or_(x, result)
    return result


def shift_left_const(backend: BoolBackend, a, amount: int) -> List[Bit]:
    """Left shift by a known amount (zeros shifted in)."""
    width = len(a)
    amount = min(max(amount, 0), width)
    return [backend.false()] * amount + list(a[: width - amount])


def shift_right_const(
    backend: BoolBackend, a, amount: int, arithmetic: bool
) -> List[Bit]:
    """Right shift by a known amount (sign- or zero-extended)."""
    width = len(a)
    amount = min(max(amount, 0), width)
    fill = a[-1] if (arithmetic and width) else backend.false()
    return list(a[amount:]) + [fill] * amount


def shift_left(backend: BoolBackend, a, amount) -> List[Bit]:
    """Barrel left shift by a symbolic amount vector."""
    return _barrel(backend, a, amount, shift_left_const, backend.false())


def shift_right(
    backend: BoolBackend, a, amount, arithmetic: bool
) -> List[Bit]:
    """Barrel right shift by a symbolic amount vector."""
    def stage(bk, bits, amt):
        return shift_right_const(bk, bits, amt, arithmetic)

    fill = a[-1] if (arithmetic and a) else backend.false()
    return _barrel(backend, a, amount, stage, fill)


def _barrel(backend: BoolBackend, a, amount, stage_fn, overflow_fill):
    width = len(a)
    if width == 0:
        return []
    stages = max(1, (width - 1).bit_length())
    result = list(a)
    for i in range(stages):
        shifted = stage_fn(backend, result, 1 << i)
        if i < len(amount):
            result = [
                backend.ite(amount[i], s, r)
                for s, r in zip(shifted, result)
            ]
    # Any set amount bit at position >= stages (or beyond the vector)
    # shifts everything out.
    overflow = backend.false()
    for i in range(stages, len(amount)):
        overflow = backend.or_(overflow, amount[i])
    return [backend.ite(overflow, overflow_fill, r) for r in result]
