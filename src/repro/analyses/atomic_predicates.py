"""Atomic predicates (Yang & Lam, ToN 2016), expressed over state sets.

Given a collection of predicates over some type (e.g. all ACL match
conditions in a network), the *atomic predicates* are the coarsest
partition of the value space such that every input predicate is a
disjoint union of atoms.  Real-time verifiers represent packet sets as
sets of atom ids, making set algebra cheap.

The computation is the classic refinement loop, running entirely on
Zen state sets — one of the Table-1 analyses other IVLs cannot
express because it manipulates sets of values directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from ..core import (
    StateSet,
    TransformerContext,
    ZenFunction,
    metered,
    start_meter,
)
from ..errors import ZenTypeError


def atomic_predicates(
    annotation: Any,
    predicates: Sequence[ZenFunction],
    context: Optional[TransformerContext] = None,
    budget=None,
) -> List[StateSet]:
    """Compute the atomic predicates of a family of boolean functions.

    Returns a list of pairwise-disjoint, non-empty state sets whose
    union is the universe, refined just enough that every input
    predicate is a union of them (the minimal such partition).

    `budget` bounds the whole refinement (predicate compilation *and*
    the set algebra, which is where adversarial families blow up);
    exhaustion raises :class:`~repro.errors.ZenBudgetExceeded`.
    Without a `context` the atoms get a fresh one.
    """
    if context is None:
        context = TransformerContext()
    meter = start_meter(budget)
    atoms = [context.universe(annotation)]
    for predicate in predicates:
        pred_set = context.from_predicate(predicate, budget=meter)
        with metered(context.manager, meter):
            refined: List[StateSet] = []
            for atom in atoms:
                inside = atom.intersect(pred_set)
                outside = atom.difference(pred_set)
                if not inside.is_empty():
                    refined.append(inside)
                if not outside.is_empty():
                    refined.append(outside)
            atoms = refined
    return atoms


def predicate_as_atoms(
    predicate: ZenFunction,
    atoms: Sequence[StateSet],
    budget=None,
) -> Set[int]:
    """Express a predicate as the set of atom indices it covers.

    Raises if the predicate is not a union of the given atoms (i.e.
    the atoms were computed for a different predicate family).
    `budget` bounds the compilation and the coverage check.  The
    predicate is compiled in the atoms' context.
    """
    context = atoms[0].context if atoms else TransformerContext()
    meter = start_meter(budget)
    pred_set = context.from_predicate(predicate, budget=meter)
    covered: Set[int] = set()
    residual = pred_set
    with metered(context.manager, meter):
        for index, atom in enumerate(atoms):
            inter = atom.intersect(pred_set)
            if inter.is_empty():
                continue
            if not atom.difference(pred_set).is_empty():
                raise ZenTypeError(
                    "predicate splits an atom; recompute atoms including it"
                )
            covered.add(index)
            residual = residual.difference(atom)
        if not residual.is_empty():
            raise ZenTypeError("predicate not covered by the given atoms")
    return covered


def atom_count(
    annotation: Any,
    predicates: Sequence[ZenFunction],
    context: Optional[TransformerContext] = None,
    budget=None,
) -> int:
    """Number of atomic predicates for a predicate family."""
    return len(atomic_predicates(annotation, predicates, context, budget))
