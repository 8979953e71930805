"""The SAT ("SMT") backend: bits are AIG literals, solving is CDCL.

This mirrors the paper's Z3 bitvector backend: symbolic evaluation
produces a circuit, which is bitblasted (Tseitin) to CNF and handed to
the CDCL solver.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..aig import FALSE_LIT, TRUE_LIT, Aig, CnfMapping, encode
from ..telemetry.spans import span
from .interface import Bit


class SatModel:
    """A satisfying assignment for an AIG-based query.

    The model stores concrete values for the primary inputs (inputs
    outside the encoded cone default to False) and evaluates any other
    literal by circuit simulation, so decoding works for arbitrary
    derived bits, not just those the CNF encoding happened to cover.
    """

    def __init__(self, aig: Aig, input_values: dict):
        self._aig = aig
        self._sim = aig.simulate(input_values)

    def value(self, bit: Bit) -> bool:
        """Value of any AIG literal under the model."""
        return self._sim[bit]


class SatBackend:
    """Boolean backend over an and-inverter graph + CDCL solver."""

    #: Stable backend identifier used by the fallback ladder, the
    #: query service's circuit breakers, and attempt records.
    name = "sat"

    def __init__(self) -> None:
        self._aig = Aig()
        self._budget = None
        # True when the last solve_all hit its limit with models left,
        # False when it enumerated exhaustively, None before any run.
        self.last_enumeration_truncated = None
        self._stats = {
            "solves": 0,
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "learned": 0,
        }

    def set_budget(self, budget) -> None:
        """Install (or clear) a budget meter for subsequent solves.

        The meter is handed to the encoder and the CDCL solver of every
        solve on this backend: its deadline is looked at once evaluation
        has produced the constraint, while the gates are loaded, and
        throughout the search.  Circuit (AIG) construction itself is
        uninstrumented — it is linear in the model.
        """
        if budget is not None and not hasattr(budget, "on_conflict"):
            budget = budget.start()
        self._budget = budget

    @property
    def budget(self):
        """The installed budget meter, or None."""
        return self._budget

    @property
    def aig(self) -> Aig:
        """The underlying circuit (exposed for statistics and export)."""
        return self._aig

    @property
    def statistics(self) -> dict:
        """CDCL counters accumulated across all solves on this backend.

        Mirrors :attr:`repro.sat.Solver.statistics` (conflicts,
        decisions, propagations, learned clauses) plus the number of
        solver invocations.
        """
        return dict(self._stats)

    def reset_statistics(self) -> None:
        """Zero the accumulated solver counters."""
        for key in self._stats:
            self._stats[key] = 0

    def snapshot(self) -> dict:
        """Flat numeric counter snapshot (shared counter protocol)."""
        return dict(self._stats)

    def reset_counters(self) -> None:
        """Canonical reset spelling (alias of :meth:`reset_statistics`)."""
        self.reset_statistics()

    def _accumulate(self, solver) -> None:
        stats = solver.statistics
        self._stats["solves"] += 1
        for key in ("conflicts", "decisions", "propagations", "learned"):
            self._stats[key] += stats[key]

    def true(self) -> Bit:
        return TRUE_LIT

    def false(self) -> Bit:
        return FALSE_LIT

    def fresh(self, name: str) -> Bit:
        return self._aig.new_input()

    def and_(self, a: Bit, b: Bit) -> Bit:
        return self._aig.and_(a, b)

    def or_(self, a: Bit, b: Bit) -> Bit:
        return self._aig.or_(a, b)

    def not_(self, a: Bit) -> Bit:
        return self._aig.not_(a)

    def xor(self, a: Bit, b: Bit) -> Bit:
        return self._aig.xor(a, b)

    def iff(self, a: Bit, b: Bit) -> Bit:
        return self._aig.iff(a, b)

    def ite(self, c: Bit, t: Bit, e: Bit) -> Bit:
        return self._aig.ite(c, t, e)

    def and_many(self, bits: Sequence[Bit]) -> Bit:
        return self._aig.and_many(bits)

    def is_true(self, a: Bit) -> bool:
        return a == TRUE_LIT

    def is_false(self, a: Bit) -> bool:
        return a == FALSE_LIT

    def _bitblast(self, constraint: Bit) -> CnfMapping:
        """Encode the constraint into a fresh solver, under the budget."""
        if self._budget is not None:
            self._budget.check_deadline()
        with span("sat.bitblast") as sp:
            mapping, _ = encode(self._aig, [constraint], budget=self._budget)
            sp.set("clauses", mapping.solver.num_clauses)
            sp.set("vars", mapping.solver.num_vars)
        return mapping

    def solve(self, constraint: Bit) -> Optional[SatModel]:
        """Bitblast the constraint and search for a model."""
        if constraint == FALSE_LIT:
            return None
        mapping = self._bitblast(constraint)
        try:
            satisfiable = mapping.solver.solve(budget=self._budget)
        finally:
            self._accumulate(mapping.solver)
        if not satisfiable:
            return None
        if self._budget is not None:
            self._budget.on_model()
        input_values = {
            lit: mapping.model_value(lit) for lit in self._aig.inputs
        }
        return SatModel(self._aig, input_values)

    def solve_all(self, constraint: Bit, over: List[Bit], limit: int):
        """Enumerate models projected onto the given input bits.

        Yields :class:`SatModel`-compatible snapshots; used by test
        input generation.  `limit` bounds the number of models; when
        it cuts enumeration off, one extra (blocked) solve decides
        whether models were left behind and
        :attr:`last_enumeration_truncated` records the exact answer.
        """
        self.last_enumeration_truncated = None
        if constraint == FALSE_LIT:
            self.last_enumeration_truncated = False
            return
        mapping = self._bitblast(constraint)
        solver = mapping.solver
        produced = 0
        try:
            while produced < limit:
                if not solver.solve(budget=self._budget):
                    self.last_enumeration_truncated = False
                    return
                if self._budget is not None:
                    self._budget.on_model()
                snapshot = {bit: mapping.model_value(bit) for bit in over}
                yield _FixedModel(snapshot)
                produced += 1
                blocking = []
                for bit in over:
                    lit = mapping.solver_literal(bit)
                    if lit is None:
                        continue
                    blocking.append(-lit if snapshot[bit] else lit)
                if not blocking or not solver.add_clause(blocking):
                    self.last_enumeration_truncated = False
                    return
            self.last_enumeration_truncated = solver.solve(budget=self._budget)
        finally:
            self._accumulate(solver)


class _FixedModel:
    """An immutable snapshot of input-bit values."""

    def __init__(self, values: dict):
        self._values = values

    def value(self, bit: Bit) -> bool:
        return self._values.get(bit, False)
