"""Variable-ordering strategies for the BDD backend.

BDD sizes are extremely sensitive to variable order (Rudell 1993; Aziz
et al. 1994).  The paper's key heuristic: when two multi-bit values are
compared for (in)equality, their bits must be *interleaved* in the
order, otherwise the equality BDD is exponential in the bit width.

This module reserves variable indices.  Because the manager's levels
are append-only, ordering decisions are made *before* variables are
allocated: callers ask for sequential or interleaved blocks and
allocate against them — exactly how the Zen implementation picks an
ordering strategy from its alias-style analysis before constructing
any BDDs.
"""

from __future__ import annotations

from typing import List

from ..errors import ZenSolverError


class VariableAllocator:
    """Hands out BDD variable indices according to an ordering plan.

    Two allocation styles are supported:

    * :meth:`sequential` — a block of contiguous indices.
    * :meth:`interleaved` — several equal-width blocks whose bits
      alternate (bit 0 of each group, then bit 1 of each group, ...).

    The allocator only reserves index ranges; the caller must create
    the variables in the manager with ``new_vars`` to cover them.
    """

    def __init__(self) -> None:
        self._next = 0

    @property
    def allocated(self) -> int:
        """Total number of indices reserved so far."""
        return self._next

    def sequential(self, width: int) -> List[int]:
        """Reserve `width` contiguous variable indices."""
        indices = list(range(self._next, self._next + width))
        self._next += width
        return indices

    def interleaved(self, group_count: int, width: int) -> List[List[int]]:
        """Reserve `group_count` groups of `width` interleaved indices.

        Returns one index list per group; group g's bit b sits at
        offset ``b * group_count + g`` in the reserved block.  Use this
        for bitvectors that are compared with each other.
        """
        if group_count <= 0 or width < 0:
            raise ZenSolverError("invalid interleaving shape")
        base = self._next
        self._next += group_count * width
        return [
            [base + b * group_count + g for b in range(width)]
            for g in range(group_count)
        ]
