"""SAT solving substrate: a CDCL solver plus DIMACS utilities.

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

from .dimacs import dimacs_string, load_into_solver, parse_dimacs, write_dimacs
from .solver import Solver, gate_clauses, luby

__all__ = [
    "Solver",
    "luby",
    "gate_clauses",
    "parse_dimacs",
    "write_dimacs",
    "dimacs_string",
    "load_into_solver",
]
