"""Offline BDD variable reordering (cf. Rudell's dynamic reordering).

The manager keeps an append-only order, so reordering here is
*offline*: a root function is rebuilt into a fresh manager under a
candidate order, and a sifting-style search keeps changes that shrink
the node count.  This is the workflow Zen's ordering heuristics avoid
needing in the common case (§6) but which remains useful when a model
defeats the static analysis.

The entry point is :func:`sift`, which returns a (manager, root,
order) triple; :func:`rebuild` is the underlying order-changing copy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ZenBudgetExceeded, ZenSolverError
from .manager import FALSE, TRUE, Bdd


def rebuild(
    source: Bdd, root: int, order: Sequence[int], budget=None
) -> Tuple[Bdd, int]:
    """Copy `root` into a fresh manager under a new variable order.

    `order[k]` is the source variable placed at level k of the new
    manager.  All source variables must appear exactly once.  `budget`
    (a Budget or running meter) is installed on the fresh target
    manager for the duration of the copy, bounding the rebuild itself.
    """
    if sorted(order) != list(range(source.num_vars)):
        raise ZenSolverError("order must be a permutation of all variables")
    target = Bdd()
    target.new_vars(source.num_vars)
    meter = None
    if budget is not None:
        target.set_budget(budget)
        meter = target.budget
    # position_of[v] = level of source variable v in the new manager.
    position_of = {v: k for k, v in enumerate(order)}

    # Rebuild bottom-up with Shannon expansion against the *new* order:
    # recursively cofactor the source function on the new top variable.
    cache: Dict[Tuple[int, int], int] = {}
    # Supports of source nodes, for this copy only: nothing outlives
    # the call that could be mistaken for another manager's.
    supports: Dict[int, frozenset] = {}

    def copy(node: int, level: int) -> int:
        if node == TRUE or node == FALSE:
            return node
        if meter is not None:
            # The per-kernel amortized checkpoints never fire on the
            # small managers rebuilds produce, so checkpoint here once
            # per copied (node, level) pair instead.
            meter.tick(target.stats().node_count)
        key = (node, level)
        cached = cache.get(key)
        if cached is not None:
            return cached
        # Find the next new-order level that the node depends on.
        support = supports.get(node)
        if support is None:
            support = supports[node] = frozenset(source.support(node))
        while level < len(order) and order[level] not in support:
            level += 1
        if level >= len(order):
            raise ZenSolverError("internal: support exhausted during rebuild")
        var = order[level]
        low = copy(source.restrict(node, {var: False}), level + 1)
        high = copy(source.restrict(node, {var: True}), level + 1)
        result = target.ite(target.var(level), high, low)
        cache[key] = result
        return result

    new_root = copy(root, 0)
    return target, new_root


def sift(
    source: Bdd,
    root: int,
    max_passes: int = 2,
    max_vars: Optional[int] = None,
    budget=None,
    on_budget: str = "degrade",
) -> Tuple[Bdd, int, List[int]]:
    """Sifting-style search for a smaller variable order.

    Each pass moves every variable (largest-contribution first)
    through all positions and keeps the best.  Offline rebuilds make
    this O(n²) rebuilds per pass, so it is intended for small-to-
    medium functions (``max_vars`` guards against accidents).

    `budget` bounds the whole search with one shared meter (every
    candidate rebuild checkpoints against it).  Variable moves are
    committed only after a full position scan, so exhaustion mid-scan
    never leaves a half-applied order.  When the budget runs out,
    ``on_budget="degrade"`` (the default) stops the search and returns
    the best fully-evaluated order found so far — an anytime result —
    while ``on_budget="raise"`` propagates the
    :class:`~repro.errors.ZenBudgetExceeded` (the source manager is
    never mutated either way, so the caller's state stays valid).

    Returns (new manager, new root, order) where ``order[k]`` is the
    original variable at level k.
    """
    if on_budget not in ("degrade", "raise"):
        raise ZenSolverError(
            f"on_budget must be 'degrade' or 'raise', got {on_budget!r}"
        )
    num_vars = source.num_vars
    if max_vars is not None and num_vars > max_vars:
        raise ZenSolverError(
            f"sift limited to {max_vars} variables, manager has {num_vars}"
        )
    meter = budget
    if meter is not None and not hasattr(meter, "tick"):
        meter = meter.start()
    order = list(range(num_vars))
    # If even the baseline rebuild exceeds the budget there is nothing
    # to degrade to, so this raise is unconditional.
    manager, current = rebuild(source, root, order, budget=meter)
    best_size = manager.node_count(current)
    support = set(source.support(root))

    try:
        for _ in range(max_passes):
            improved = False
            for var in sorted(support):
                home = order.index(var)
                best_pos = home
                for pos in range(num_vars):
                    if pos == home:
                        continue
                    candidate = list(order)
                    candidate.remove(var)
                    candidate.insert(pos, var)
                    cand_manager, cand_root = rebuild(
                        source, root, candidate, budget=meter
                    )
                    size = cand_manager.node_count(cand_root)
                    if size < best_size:
                        best_size = size
                        best_pos = pos
                if best_pos != home:
                    order.remove(var)
                    order.insert(best_pos, var)
                    improved = True
            if not improved:
                break
    except ZenBudgetExceeded:
        if on_budget != "degrade":
            raise
        # Fall through: `order` holds only committed (fully evaluated)
        # moves, each of which rebuilt successfully, so the final
        # rebuild below is known to be tractable.
    manager, current = rebuild(source, root, order)
    return manager, current, order


def order_quality(manager: Bdd, root: int) -> int:
    """Node count, the metric sifting minimizes (exposed for tests)."""
    return manager.node_count(root)
