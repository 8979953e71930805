"""Tseitin transformation from AIG literals to CNF.

This is the glue between the AIG built during symbolic evaluation and
the CDCL solver.  The cone of the query is handed over as *gates*, not
clauses (:meth:`repro.sat.Solver.add_gates`): an AND gate is three
clauses, and the three-gate shape ``Aig.ite`` / ``Aig.xor`` build,
``NOT(NOT(c AND t) AND NOT(NOT c AND e))``, is one mux gate of one
variable and four clauses when nothing else looks at its two inner
gates.  The query literal is asserted as a unit clause.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sat import Solver, gate_clauses
from .graph import FALSE_LIT, TRUE_LIT, Aig


class CnfMapping:
    """The result of encoding AIG roots into a SAT solver.

    Maps AIG literals to solver (DIMACS) literals so callers can assert
    constraints over, and read model values of, any literal of the AIG.
    """

    def __init__(self, solver: Solver, aig: Aig, solver_lits: List[int]):
        self._solver = solver
        self._aig = aig
        # Indexed by AIG literal, 0 for a node without a variable;
        # literals past the end (of nodes created later, or above every
        # root) have none either.
        self._solver_lits = solver_lits

    @property
    def solver(self) -> Solver:
        """The SAT solver that received the clauses."""
        return self._solver

    def solver_literal(self, aig_lit: int) -> Optional[int]:
        """DIMACS literal for an AIG literal, or None if it has none.

        Constants, nodes outside the encoded cone and the inner gates
        of a mux have no solver literal.
        """
        if aig_lit < len(self._solver_lits):
            return self._solver_lits[aig_lit] or None
        return None

    def model_value(self, aig_lit: int) -> bool:
        """Value of an AIG literal in the solver's current model.

        Inputs outside the encoded cone are unconstrained and read as
        False, matching the simulator's default; a gate without a
        variable is evaluated from its fanins.
        """
        values = {0: True}
        stack = [aig_lit >> 1]
        while stack:
            node = stack[-1]
            if node in values:
                stack.pop()
                continue
            lit = self.solver_literal(2 * node)
            if lit is not None:
                values[node] = self._solver.model_value(lit)
            elif self._aig.is_input(2 * node):
                values[node] = False
            else:
                a, b = self._aig.fanin(2 * node)
                if a >> 1 in values and b >> 1 in values:
                    values[node] = (values[a >> 1] ^ bool(a & 1)) and (
                        values[b >> 1] ^ bool(b & 1)
                    )
                else:
                    stack += (a >> 1, b >> 1)
        return values[aig_lit >> 1] ^ bool(aig_lit & 1)


def encode(
    aig: Aig,
    roots: Sequence[int],
    solver: Optional[Solver] = None,
    assert_roots: bool = True,
    budget=None,
) -> Tuple[CnfMapping, List[int]]:
    """Tseitin-encode the cone of `roots` into a SAT solver.

    Returns the mapping plus the DIMACS literals corresponding to each
    root (in order).  When `assert_roots` is true, each root is added
    as a unit clause, so `solver.solve()` checks their conjunction.

    Constant roots are handled specially: TRUE contributes nothing,
    FALSE makes the problem trivially unsatisfiable.

    `budget` is an optional running budget meter; its deadline is
    looked at while the gates are loaded.
    """
    if solver is None:
        solver = Solver()
    # Fanins are read straight from the node table: two method calls
    # per gate would cost as much as loading it.
    fanin = aig._fanin
    refs = aig.cone_references(roots)
    muxes = aig.absorb_muxes(refs)
    solver_lits = [0] * (2 * len(refs))
    gates: List[Tuple[int, ...]] = []
    # Variables ascend with the node index, so the inputs, which
    # evaluation allocates before any gate, are the solver's first
    # decisions and everything else follows by propagation.
    var = solver.new_vars(len(refs) - refs.count(0)) - 1
    for node in range(1, len(refs)):
        if not refs[node]:
            continue
        var += 1
        solver_lits[2 * node] = var
        solver_lits[2 * node + 1] = -var
        mux = muxes.get(node)
        if mux is not None:
            c, t, e = mux
            gates.append((var, solver_lits[c], solver_lits[t], solver_lits[e]))
        elif fanin[node] is not None:
            a, b = fanin[node]
            gates.append((var, solver_lits[a], solver_lits[b]))
    solver.add_gates(gates, budget)
    mapping = CnfMapping(solver, aig, solver_lits)

    root_lits: List[int] = []
    for root in roots:
        if root == TRUE_LIT:
            root_lits.append(0)
            continue
        if root == FALSE_LIT:
            root_lits.append(0)
            if assert_roots:
                # Force unsatisfiability with a fresh contradictory pair.
                v = solver.new_vars(1)
                solver.add_clause([v])
                solver.add_clause([-v])
            continue
        lit = mapping.solver_literal(root)
        assert lit is not None
        root_lits.append(lit)
        if assert_roots:
            solver.add_clause([lit])
    return mapping, root_lits


def to_cnf(aig: Aig, root: int) -> Tuple[int, List[List[int]], Dict[int, int]]:
    """Standalone CNF extraction (num_vars, clauses, input literal map).

    Useful for exporting DIMACS files.  The returned map sends AIG
    input literals to DIMACS variables.
    """
    collector = _CollectingSolver()
    mapping, _ = encode(aig, [root], solver=collector)  # type: ignore[arg-type]
    input_map = {
        lit: abs(mapping.solver_literal(lit) or 0)
        for lit in aig.inputs
        if mapping.solver_literal(lit) is not None
    }
    return collector.num_vars, collector.clauses, input_map


class _CollectingSolver:
    """A Solver look-alike that records clauses instead of solving."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[List[int]] = []

    def new_vars(self, count: int) -> int:
        self.num_vars += count
        return self.num_vars - count + 1

    def add_clause(self, lits: Iterable[int]) -> bool:
        self.clauses.append(list(lits))
        return True

    def add_gates(self, gates: Sequence[Sequence[int]], meter=None) -> bool:
        for gate in gates:
            self.clauses.extend(gate_clauses(gate))
        return True
