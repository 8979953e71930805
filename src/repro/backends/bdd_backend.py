"""The BDD backend: bits are BDD nodes; solving is a sat-path walk.

Fresh inputs append variables to the manager's order, so callers that
care about interleaving (the transformer machinery, §6) pre-allocate
inputs in their preferred order simply by the sequence of ``fresh``
calls.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..bdd import FALSE, TRUE, Bdd
from ..telemetry.spans import span
from .interface import Bit


class BddModel:
    """A satisfying assignment over BDD variables."""

    def __init__(self, manager: Bdd, assignment: Dict[int, bool]):
        self._manager = manager
        self._assignment = assignment

    def value(self, bit: Bit) -> bool:
        """Value of a bit under the model.

        Works for plain variable nodes and for composite nodes (e.g.
        the derived presence guards of symbolic lists) by evaluating
        the node under the assignment; unassigned variables read as
        False, consistent with how partial sat-paths are totalized.
        """
        return self._manager.evaluate(bit, self._assignment)


class BddBackend:
    """Boolean backend over the ROBDD manager."""

    #: Stable backend identifier used by the fallback ladder, the
    #: query service's circuit breakers, and attempt records.
    name = "bdd"

    def __init__(self, manager: Optional[Bdd] = None) -> None:
        self._manager = manager if manager is not None else Bdd()
        self._var_names: Dict[int, str] = {}
        self._literals: Dict[Bit, Tuple[int, bool]] = {}

    @property
    def manager(self) -> Bdd:
        """The underlying BDD manager."""
        return self._manager

    def snapshot(self) -> dict:
        """The manager's flat counter snapshot (shared counter protocol)."""
        return self._manager.snapshot()

    def set_budget(self, budget) -> None:
        """Install (or clear) a budget meter on the manager.

        BDD queries spend their time *building* the constraint (the
        solve itself is a linear sat-path walk), so the meter lives on
        the manager where every kernel checkpoints against it.
        """
        self._manager.set_budget(budget)

    @property
    def budget(self):
        """The installed budget meter, or None."""
        return self._manager.budget

    def true(self) -> Bit:
        return TRUE

    def false(self) -> Bit:
        return FALSE

    def fresh(self, name: str) -> Bit:
        node = self._manager.new_var()
        self._var_names[self._manager.num_vars - 1] = name
        return node

    def and_(self, a: Bit, b: Bit) -> Bit:
        return self._manager.and_(a, b)

    def or_(self, a: Bit, b: Bit) -> Bit:
        return self._manager.or_(a, b)

    def not_(self, a: Bit) -> Bit:
        return a ^ 1  # a complement edge: no manager call

    def xor(self, a: Bit, b: Bit) -> Bit:
        return self._manager.xor(a, b)

    def iff(self, a: Bit, b: Bit) -> Bit:
        return self._manager.xor(a, b) ^ 1

    def ite(self, c: Bit, t: Bit, e: Bit) -> Bit:
        return self._manager.ite(c, t, e)

    def and_many(self, bits: Sequence[Bit]) -> Bit:
        """Conjunction scheduled from the deepest variables up.

        Operands that are all literals become one ``cube`` (a single
        path, no apply traversal).  Otherwise the operand whose top
        variable is deepest goes first, so each ``and_`` walks only the
        operand it adds instead of the relation built so far.
        """
        manager = self._manager
        operands = [bit for bit in bits if bit != TRUE]
        if FALSE in operands:
            return FALSE
        literal_of = self._literals
        literals: Dict[int, bool] = {}
        for bit in operands:
            literal = literal_of.get(bit) or self._literal(bit)
            if literal is None:
                break
            level, positive = literal
            if literals.setdefault(level, positive) != positive:
                return FALSE  # x and not x
        else:
            return manager.cube(literals)
        operands.sort(key=manager.level_of, reverse=True)
        result = TRUE
        for bit in operands:
            result = self.and_(bit, result)
        return result

    def _literal(self, bit: Bit) -> Optional[Tuple[int, bool]]:
        """(variable, polarity) if the node is a literal, remembered so
        the bits of an input are looked at once, not at every rule."""
        manager = self._manager
        high = manager.high(bit)
        if high > TRUE or manager.low(bit) > TRUE:
            return None
        literal = self._literals[bit] = (manager.level_of(bit), high == TRUE)
        return literal

    def is_true(self, a: Bit) -> bool:
        return a == TRUE

    def is_false(self, a: Bit) -> bool:
        return a == FALSE

    def solve(self, constraint: Bit) -> Optional[BddModel]:
        """Walk a satisfying path through the constraint BDD."""
        with span("bdd.any_sat"):
            assignment = self._manager.any_sat(constraint)
        if assignment is None:
            return None
        meter = self._manager.budget
        if meter is not None:
            meter.on_model()
        return BddModel(self._manager, assignment)
