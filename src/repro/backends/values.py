"""Symbolic values: the bit-level shadow of every Zen type.

A symbolic value mirrors the structure of its Zen type with backend
bits at the leaves.  Lists use the bounded representation from the
paper (§6 "Composite data structures"): a vector of cells, each with a
presence guard, guards monotone by construction (cell i present implies
cell i-1 present).  Options are a flag plus a payload, exactly the
class-with-flag-and-value representation §5 describes.

The payload of an absent Option and the element of an absent list cell
are *unspecified*: ``fresh`` inputs carry arbitrary bits there, so every
reader masks them with the flag or guard (``OptionValue`` and
``ListCase`` in the evaluator, :func:`equal` and :func:`decode` here),
and nothing may be built on their value.

This module also implements the type-driven *merge* operation
(Rosette-style, §6): ``ite`` over two structured values pushes the
condition down to the bit leaves — except into payloads one side does
not have, which no reader can observe.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Any, Dict, List, Sequence, Tuple

from ..errors import ZenEvaluationError, ZenTypeError
from ..lang import types as ty
from . import bitvector as bv
from .interface import Bit, BoolBackend, Model, const_bit


class SymValue:
    """Base class of symbolic values."""

    __slots__ = ("type",)

    def __init__(self, zen_type: ty.ZenType):
        self.type = zen_type


class SymBool(SymValue):
    """A symbolic Boolean: one bit."""

    __slots__ = ("bit",)

    def __init__(self, bit: Bit):
        super().__init__(ty.BOOL)
        self.bit = bit


class SymInt(SymValue):
    """A symbolic fixed-width integer: a bit vector, LSB first."""

    __slots__ = ("bits",)

    def __init__(self, zen_type: ty.IntType, bits: Sequence[Bit]):
        if len(bits) != zen_type.width:
            raise ZenEvaluationError(
                f"bit width mismatch for {zen_type}: {len(bits)}"
            )
        super().__init__(zen_type)
        self.bits = list(bits)


class SymTuple(SymValue):
    """A symbolic tuple."""

    __slots__ = ("items",)

    def __init__(self, zen_type: ty.TupleType, items: Sequence[SymValue]):
        super().__init__(zen_type)
        self.items = list(items)


class SymObject(SymValue):
    """A symbolic record."""

    __slots__ = ("fields",)

    def __init__(self, zen_type: ty.ObjectType, fields: Dict[str, SymValue]):
        super().__init__(zen_type)
        self.fields = dict(fields)


class SymOption(SymValue):
    """A symbolic option: flag bit + payload value."""

    __slots__ = ("has", "val")

    def __init__(self, zen_type: ty.OptionType, has: Bit, val: SymValue):
        super().__init__(zen_type)
        self.has = has
        self.val = val


class SymList(SymValue):
    """A bounded symbolic list: (guard, element) cells.

    Invariant: guards are monotone (a present cell never follows an
    absent one) for every feasible assignment.  All constructors in
    this module preserve the invariant.
    """

    __slots__ = ("cells",)

    def __init__(
        self, zen_type: ty.ListType, cells: Sequence[Tuple[Bit, SymValue]]
    ):
        super().__init__(zen_type)
        self.cells = list(cells)


class SymMap(SymValue):
    """A symbolic map: a list of key/value pairs, most recent first."""

    __slots__ = ("backing",)

    def __init__(self, zen_type: ty.MapType, backing: SymList):
        super().__init__(zen_type)
        self.backing = backing


# ----------------------------------------------------------------------
# Construction from constants and fresh inputs
# ----------------------------------------------------------------------


def from_constant(
    backend: BoolBackend, zen_type: ty.ZenType, value: Any
) -> SymValue:
    """Encode a concrete Python value as a symbolic value."""
    if isinstance(zen_type, ty.BoolType):
        return SymBool(const_bit(backend, bool(value)))
    if isinstance(zen_type, ty.IntType):
        return SymInt(
            zen_type, bv.const_vector(backend, value, zen_type.width)
        )
    if isinstance(zen_type, ty.TupleType):
        return SymTuple(
            zen_type,
            [
                from_constant(backend, t, v)
                for t, v in zip(zen_type.elements, value)
            ],
        )
    if isinstance(zen_type, ty.ObjectType):
        return SymObject(
            zen_type,
            {
                name: from_constant(backend, t, getattr(value, name))
                for name, t in zen_type.fields.items()
            },
        )
    if isinstance(zen_type, ty.OptionType):
        if value is None:
            return SymOption(
                zen_type,
                backend.false(),
                default(backend, zen_type.element),
            )
        return SymOption(
            zen_type,
            backend.true(),
            from_constant(backend, zen_type.element, value),
        )
    if isinstance(zen_type, ty.ListType):
        cells = [
            (backend.true(), from_constant(backend, zen_type.element, item))
            for item in value
        ]
        return SymList(zen_type, cells)
    if isinstance(zen_type, ty.MapType):
        pairs = list(value.items())
        pairs.reverse()  # most recent insertion first
        backing = from_constant(
            backend, zen_type.adapted(), [tuple(p) for p in pairs]
        )
        return SymMap(zen_type, backing)  # type: ignore[arg-type]
    raise ZenTypeError(f"cannot encode constants of type {zen_type}")


def default(backend: BoolBackend, zen_type: ty.ZenType) -> SymValue:
    """The all-zeros symbolic value of a type."""
    return from_constant(backend, zen_type, ty.default_value(zen_type))


def fresh(
    backend: BoolBackend,
    zen_type: ty.ZenType,
    name: str,
    max_list_length: int,
) -> SymValue:
    """Allocate a fresh symbolic input of the given type.

    Lists get `max_list_length` cells whose guards are products of
    fresh bits, making them monotone by construction.
    """
    if isinstance(zen_type, ty.BoolType):
        return SymBool(backend.fresh(name))
    if isinstance(zen_type, ty.IntType):
        # Allocate most-significant bit first: IP prefixes and numeric
        # ranges then constrain a *leading* block of decision levels,
        # which keeps BDD encodings trie-like and compact.  The bits
        # list itself stays LSB-first.
        bits = [
            backend.fresh(f"{name}.{i}")
            for i in reversed(range(zen_type.width))
        ]
        bits.reverse()
        return SymInt(zen_type, bits)
    if isinstance(zen_type, ty.TupleType):
        return SymTuple(
            zen_type,
            [
                fresh(backend, t, f"{name}.{i}", max_list_length)
                for i, t in enumerate(zen_type.elements)
            ],
        )
    if isinstance(zen_type, ty.ObjectType):
        return SymObject(
            zen_type,
            {
                fname: fresh(backend, t, f"{name}.{fname}", max_list_length)
                for fname, t in zen_type.fields.items()
            },
        )
    if isinstance(zen_type, ty.OptionType):
        has = backend.fresh(f"{name}.has")
        val = fresh(backend, zen_type.element, f"{name}.val", max_list_length)
        return SymOption(zen_type, has, val)
    if isinstance(zen_type, ty.ListType):
        cells: List[Tuple[Bit, SymValue]] = []
        guard = backend.true()
        for i in range(max_list_length):
            guard = backend.and_(guard, backend.fresh(f"{name}.len>{i}"))
            element = fresh(
                backend, zen_type.element, f"{name}[{i}]", max_list_length
            )
            cells.append((guard, element))
        return SymList(zen_type, cells)
    if isinstance(zen_type, ty.MapType):
        backing = fresh(
            backend, zen_type.adapted(), f"{name}.entries", max_list_length
        )
        return SymMap(zen_type, backing)  # type: ignore[arg-type]
    raise ZenTypeError(f"cannot create symbolic inputs of type {zen_type}")


# ----------------------------------------------------------------------
# Type-driven merging (ite over structured values)
# ----------------------------------------------------------------------


def merge(
    backend: BoolBackend, cond: Bit, then: SymValue, orelse: SymValue
) -> SymValue:
    """``ite(cond, then, orelse)`` pushed down to the bit leaves."""
    if backend.is_true(cond):
        return then
    if backend.is_false(cond):
        return orelse
    if then.type != orelse.type:
        raise ZenEvaluationError(
            f"merge type mismatch: {then.type} vs {orelse.type}"
        )
    if isinstance(then, SymBool):
        return SymBool(backend.ite(cond, then.bit, orelse.bit))
    if isinstance(then, SymInt):
        return SymInt(
            then.type,  # type: ignore[arg-type]
            [
                backend.ite(cond, a, b)
                for a, b in zip(then.bits, orelse.bits)
            ],
        )
    if isinstance(then, SymTuple):
        return SymTuple(
            then.type,  # type: ignore[arg-type]
            [
                merge(backend, cond, a, b)
                for a, b in zip(then.items, orelse.items)
            ],
        )
    if isinstance(then, SymObject):
        return SymObject(
            then.type,  # type: ignore[arg-type]
            {
                name: merge(backend, cond, then.fields[name], orelse.fields[name])
                for name in then.fields
            },
        )
    if isinstance(then, SymOption):
        return SymOption(
            then.type,  # type: ignore[arg-type]
            *_merge_guarded(
                backend, cond, (then.has, then.val), (orelse.has, orelse.val)
            ),
        )
    if isinstance(then, SymList):
        cells = [
            _merge_guarded(backend, cond, a, b)
            for a, b in _zip_cells(backend, then, orelse)
        ]
        return SymList(then.type, cells)  # type: ignore[arg-type]
    if isinstance(then, SymMap):
        merged = merge(backend, cond, then.backing, orelse.backing)
        return SymMap(then.type, merged)  # type: ignore[arg-type]
    raise ZenEvaluationError(f"cannot merge values of type {then.type}")


def _merge_guarded(backend: BoolBackend, cond: Bit, a, b):
    """Merge two (guard, payload) pairs: an Option or one list cell.

    A payload under a constant-false guard is unspecified, so the live
    side's payload is taken as it is instead of being ``ite``-d
    against bits no reader can observe.
    """
    (ga, va), (gb, vb) = a, b
    guard = backend.ite(cond, ga, gb)
    if backend.is_false(gb):
        return guard, va
    if backend.is_false(ga):
        return guard, vb
    return guard, merge(backend, cond, va, vb)


def _zip_cells(backend: BoolBackend, a: SymList, b: SymList):
    """Pair the cells of two lists; the shorter one ends in absent cells."""
    return zip_longest(a.cells, b.cells, fillvalue=(backend.false(), None))


# ----------------------------------------------------------------------
# Structural equality
# ----------------------------------------------------------------------


def equal(backend: BoolBackend, a: SymValue, b: SymValue) -> Bit:
    """Structural equality of two symbolic values (one bit)."""
    if a.type != b.type:
        raise ZenEvaluationError(f"cannot compare {a.type} with {b.type}")
    if isinstance(a, SymBool):
        return backend.iff(a.bit, b.bit)
    if isinstance(a, SymInt):
        return bv.equal(backend, a.bits, b.bits)
    if isinstance(a, SymTuple):
        return backend.and_many(
            [equal(backend, x, y) for x, y in zip(a.items, b.items)]
        )
    if isinstance(a, SymObject):
        return backend.and_many(
            [equal(backend, a.fields[name], b.fields[name]) for name in a.fields]
        )
    if isinstance(a, SymOption):
        return _equal_guarded(backend, (a.has, a.val), (b.has, b.val))
    if isinstance(a, SymList):
        return backend.and_many(
            [_equal_guarded(backend, x, y) for x, y in _zip_cells(backend, a, b)]
        )
    if isinstance(a, SymMap):
        # Maps compare by representation (entry lists), which matches
        # how the adapted encoding behaves in the paper's implementation.
        return equal(backend, a.backing, b.backing)
    raise ZenEvaluationError(f"cannot compare values of type {a.type}")


def _equal_guarded(backend: BoolBackend, a, b) -> Bit:
    """Equality of two (guard, payload) pairs: same guard, and the same
    payload where it is present (an absent payload is unspecified)."""
    (ga, va), (gb, vb) = a, b
    same_guard = backend.iff(ga, gb)
    if backend.is_false(ga) or backend.is_false(gb):
        return same_guard
    payload = backend.or_(backend.not_(ga), equal(backend, va, vb))
    return backend.and_(same_guard, payload)


# ----------------------------------------------------------------------
# Decoding models back to Python values
# ----------------------------------------------------------------------


def decode(model: Model, value: SymValue) -> Any:
    """Read a symbolic value back as a concrete Python value."""
    if isinstance(value, SymBool):
        return model.value(value.bit)
    if isinstance(value, SymInt):
        bits = [model.value(b) for b in value.bits]
        return bv.to_int(bits, value.type.signed)  # type: ignore[attr-defined]
    if isinstance(value, SymTuple):
        return tuple(decode(model, item) for item in value.items)
    if isinstance(value, SymObject):
        cls = value.type.cls  # type: ignore[attr-defined]
        return cls(
            **{name: decode(model, v) for name, v in value.fields.items()}
        )
    if isinstance(value, SymOption):
        if not model.value(value.has):
            return None
        return decode(model, value.val)
    if isinstance(value, SymList):
        items = []
        for guard, element in value.cells:
            if not model.value(guard):
                break
            items.append(decode(model, element))
        return items
    if isinstance(value, SymMap):
        entries = decode(model, value.backing)
        result: Dict[Any, Any] = {}
        for key, val in reversed(entries):  # head of list wins
            result[key] = val
        return result
    raise ZenEvaluationError(f"cannot decode values of type {value.type}")


def input_bits(value: SymValue) -> List[Bit]:
    """All bits of a symbolic value, in a deterministic order."""
    out: List[Bit] = []
    _collect_bits(value, out)
    return out


def _collect_bits(value: SymValue, out: List[Bit]) -> None:
    if isinstance(value, SymBool):
        out.append(value.bit)
    elif isinstance(value, SymInt):
        out.extend(value.bits)
    elif isinstance(value, SymTuple):
        for item in value.items:
            _collect_bits(item, out)
    elif isinstance(value, SymObject):
        for name in sorted(value.fields):
            _collect_bits(value.fields[name], out)
    elif isinstance(value, SymOption):
        out.append(value.has)
        _collect_bits(value.val, out)
    elif isinstance(value, SymList):
        for guard, element in value.cells:
            out.append(guard)
            _collect_bits(element, out)
    elif isinstance(value, SymMap):
        _collect_bits(value.backing, out)
    else:
        raise ZenEvaluationError(f"unknown symbolic value {value!r}")
