"""The Boolean backend interface shared by the SAT and BDD engines.

Symbolic evaluation (the bitblaster) is written once against this
interface; plugging in a different engine gives a new Zen backend —
exactly the separation of concerns Figure 2 of the paper argues for.

A *bit* is an opaque handle (an AIG literal for the SAT backend, a
BDD node for the BDD backend).  Constant bits must be recognizable so
the evaluator can prune dead branches when models mix concrete and
symbolic data.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence

Bit = Any


class Model(Protocol):
    """A satisfying assignment, queryable per input bit."""

    def value(self, bit: Bit) -> bool:
        """The Boolean value assigned to an *input* bit."""
        ...


class BoolBackend(Protocol):
    """Operations a solver engine must provide to the bitblaster.

    Constants (``true`` / ``false``, recognisable through ``is_true`` /
    ``is_false``), fresh inputs, the six gates ``and_`` / ``or_`` /
    ``not_`` / ``xor`` / ``iff`` / ``ite``, the n-ary ``and_many``, and
    ``solve``.
    """

    def true(self) -> Bit:
        ...

    def false(self) -> Bit:
        ...

    def fresh(self, name: str) -> Bit:
        """Allocate a fresh input bit."""
        ...

    def and_(self, a: Bit, b: Bit) -> Bit:
        ...

    def or_(self, a: Bit, b: Bit) -> Bit:
        ...

    def not_(self, a: Bit) -> Bit:
        ...

    def xor(self, a: Bit, b: Bit) -> Bit:
        ...

    def iff(self, a: Bit, b: Bit) -> Bit:
        ...

    def ite(self, c: Bit, t: Bit, e: Bit) -> Bit:
        ...

    def and_many(self, bits: Sequence[Bit]) -> Bit:
        """Conjunction of any number of bits, in the engine's best order.

        The one n-ary rule of the compiler: vector and structural
        equality and flattened ``and`` / ``or`` trees all end here, so
        each engine schedules a conjunction once (the BDD engine from
        the deepest variables up, the AIG engine as a balanced tree).
        """
        ...

    def is_true(self, a: Bit) -> bool:
        """Whether the bit is the constant TRUE."""
        ...

    def is_false(self, a: Bit) -> bool:
        """Whether the bit is the constant FALSE."""
        ...

    def solve(self, constraint: Bit) -> Optional[Model]:
        """Find a model of `constraint`, or None if unsatisfiable."""
        ...


def const_bit(backend: BoolBackend, value: bool) -> Bit:
    """The constant bit for a Python bool."""
    return backend.true() if value else backend.false()


def bit_value(backend: BoolBackend, bit: Bit) -> Optional[bool]:
    """Constant value of a bit, or None if it is symbolic."""
    if backend.is_true(bit):
        return True
    if backend.is_false(bit):
        return False
    return None
