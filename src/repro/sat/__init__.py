"""SAT solving substrate: a CDCL solver.

This package provides the search engine underneath the bitblasting
("SMT") backend described in the paper.  It is independent of the Zen
language layer and usable on its own::

    from repro.sat import Solver

    s = Solver()
    x, y = s.new_var(), s.new_var()
    s.add_clause([x, y])
    s.add_clause([-x, y])
    assert s.solve()
"""

from .solver import Solver, gate_clauses, luby

__all__ = [
    "Solver",
    "luby",
    "gate_clauses",
]
