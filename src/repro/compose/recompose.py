"""Recomposition: chain shard summaries along the plan's boundaries.

The recomposer runs over its *own* transformer context, not the
shards'.  It propagates header sets along the plan's boundary map —
``arriving[entry] → flows → arriving[next entry]`` — to a fixpoint,
then intersects what reached the sink with the query target.  A set
``S`` arriving at an entry leaves at an exit as the union of that
pair's flows ``∃X. (S ∧ G) ∧ P`` (:mod:`~repro.compose.shard`): one
``and_exists`` per flow, exact for any ``S``, so one pass decides the
verdict in both directions.

Each summary's sets arrive as references into its one node table
(:func:`~repro.compose.cubes.header_sets`), imported once per summary
into an :class:`ImportedSummaries` before any fixpoint starts.  The
driver holds one per topology and recomposes every query of that
topology over it, so a summary's table is imported once, not once per
query.

**Walk-back.**  The fixpoint records each growth of a point's set — an
entry's arriving set, or the headers delivered at the sink — stamped
with the worklist pop that produced it.  :func:`walk_back` runs those
records backwards from the hit: a flow ``(G, P)`` out of entry ``e``
takes one header ``t`` to its pre-image ``A ∧ G ∧ restrict(t, P)``
(``= A ∧ G ∧ ∃X.(t ∧ P)``), where ``A`` is what had arrived at ``e``
when the growth was popped.  It picks one header per step; that header
first arrived at a strictly earlier stamp, so the walk ends in the
source's ``headers`` cover within ``iterations`` steps, with an
*initial* header the summaries deliver into the target — the same
quantifier the forward pass uses, run the other way.

The injectable canary bug ``compose-drop-assumption`` (see
``repro.fuzz``) lives here: it chains every flow as a filter,
``S ∧ G ∧ P``, forgetting that the pinned bits were overwritten —
which silently corrupts verdicts on NAT topologies, exactly the class
of unsoundness the differential fuzz farm exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..core.transformers import TransformerContext
from ..network import Header
from ..telemetry.spans import span
from .cubes import (
    Cube,
    assignment_header,
    cover_node,
    cube_literals,
    header_sets,
)
from .plan import Plan, point_key

#: Canary bug id: chain every flow as a filter in the recomposer (named
#: for the assumption a flow's pins overwrite).
CANARY_DROP_ASSUMPTION = "compose-drop-assumption"

#: The growth records' key for headers delivered at the sink (never a
#: point key: device names hold no ``|``).
DELIVERED = "|delivered"

#: One growth of a point's set: ``(stamp, popped entry, grown set)``.
#: The source's initial set has stamp 0 and no popped entry.
Growth = Tuple[int, Optional[str], int]
Flow = Tuple[int, Cube]


def _landing(plan: Plan, exit_key: str) -> Optional[str]:
    """Where a flow leaving at `exit_key` lands: the next shard's
    entry, the sink, or (None) outside the analysed region.  A linked
    port hands the packet to its neighbour, so it never delivers."""
    landing = plan.boundary.get(exit_key)
    if landing is None and exit_key == point_key(plan.sink):
        return DELIVERED
    return landing


class ImportedSummaries:
    """Shard summaries imported into one context: each entry's
    ``(exit, flows)`` pairs, the flows' guards as nodes there."""

    def __init__(self, summaries: Iterable[Dict[str, Any]] = ()) -> None:
        self.context = TransformerContext()
        header_type = self.context.universe(Header).zen_type
        self.levels = self.context.space(header_type).levels
        self.flows_of_entry: Dict[str, List[Tuple[str, List[Flow]]]] = {}
        for summary in summaries:
            self.add(summary)

    def add(self, summary: Dict[str, Any]) -> None:
        """Import one summary's table; its entries' flows replace any
        flows those entries had."""
        images = summary["images"]
        flat = [flow for flows in images.values() for flow in flows]
        nodes = header_sets(
            self.context.manager,
            self.levels,
            summary["table"],
            [ref for ref, _ in flat],
        )
        imported = iter(zip(nodes, (pins for _, pins in flat)))
        flows_of_entry: Dict[str, List[Tuple[str, List[Flow]]]] = {}
        for pair, flows in images.items():
            entry_key, exit_key = pair.split("|", 1)
            flows_of_entry.setdefault(entry_key, []).append(
                (exit_key, list(islice(imported, len(flows))))
            )
        self.flows_of_entry.update(flows_of_entry)


@dataclass
class RecomposeOutcome:
    """What one recompose fixpoint established."""

    hit_node: int  # delivered ∩ target, in `context`
    context: TransformerContext
    levels: List[int]  # the context's header block
    #: Each entry's ``(exit, flows)`` pairs, as imported.
    flows_of_entry: Dict[str, List[Tuple[str, List[Flow]]]]
    iterations: int = 0
    #: Every growth of each point's set, in stamp order.
    growths: Dict[str, List[Growth]] = field(default_factory=dict)

    #: Whether the summaries' assumptions were discharged: always, as
    #: every summary assumes the universe; kept because a benchmark
    #: row reads it.
    trusted = True


def recompose(
    plan: Plan,
    summaries: Union[Dict[str, Dict[str, Any]], ImportedSummaries],
    bug: Optional[str] = None,
    max_iterations: int = 100_000,
) -> RecomposeOutcome:
    """Chain shard summaries along the plan's boundaries to a fixpoint.

    `summaries` maps shard ids to summaries, imported here into a
    context of this call's own, or is already imported: then the
    fixpoint runs in that context and imports nothing.
    """
    if not isinstance(summaries, ImportedSummaries):
        summaries = ImportedSummaries(summaries.values())
    levels = summaries.levels
    manager = summaries.context.manager
    canary = bug == CANARY_DROP_ASSUMPTION
    flows_of_entry = summaries.flows_of_entry
    outcome = RecomposeOutcome(0, summaries.context, levels, flows_of_entry)

    source_key = point_key(plan.source)
    arriving: Dict[str, int] = {
        source_key: cover_node(manager, levels, plan.headers)
    }
    growths = outcome.growths
    growths[source_key] = [(0, None, arriving[source_key])]
    worklist = [source_key]

    with span("compose.recompose", shards=len(plan.shards)) as live:
        while worklist and outcome.iterations < max_iterations:
            outcome.iterations += 1
            entry_key = worklist.pop()
            current = arriving.get(entry_key, 0)
            if current == 0:
                continue
            for exit_key, flows in flows_of_entry.get(entry_key, ()):
                landing = _landing(plan, exit_key)
                if landing is None:
                    continue  # it leaves the region
                flowed = 0
                for guard, pins in flows:
                    pinned = cube_literals(pins, levels)
                    if canary:
                        image = manager.and_(current, guard)
                    else:
                        image = manager.and_exists(current, guard, pinned)
                    image = manager.and_(image, manager.cube(pinned))
                    flowed = manager.or_(flowed, image)
                if flowed == 0:
                    continue
                grown = manager.or_(arriving.get(landing, 0), flowed)
                if grown != arriving.get(landing, 0):
                    arriving[landing] = grown
                    growths.setdefault(landing, []).append(
                        (outcome.iterations, entry_key, grown)
                    )
                    if landing != DELIVERED and landing not in worklist:
                        worklist.append(landing)

        delivered = arriving.get(DELIVERED, 0)
        target_node = cover_node(manager, levels, plan.target)
        outcome.hit_node = manager.and_(delivered, target_node)
        live.set("iterations", outcome.iterations)
        live.set("hit", outcome.hit_node != 0)
    return outcome


def walk_back(plan: Plan, outcome: RecomposeOutcome) -> Optional[Dict[str, int]]:
    """An initial header the summaries deliver into the target.

    Walks the outcome's growth records backwards from ``hit_node``,
    one header per step (see the module docstring).  Returns None when
    a step finds no header: the hit is not backed by the flows that
    produced it.
    """
    manager = outcome.context.manager
    levels = outcome.levels

    def one_header(node: int) -> int:
        """`{h}` for one header `h` of `node` (free bits 0), else 0."""
        assignment = manager.any_sat(node)
        if assignment is None:
            return 0
        return manager.cube({lv: assignment.get(lv, False) for lv in levels})

    header = one_header(outcome.hit_node)
    point = DELIVERED
    for _ in range(outcome.iterations + 1):
        first = next(
            (g for g in outcome.growths.get(point, ()) if manager.and_(g[2], header)),
            None,
        )
        if first is None:
            return None
        stamp, popped, _ = first
        if popped is None:  # in the source's initial set
            return assignment_header(manager.any_sat(header), levels)
        arrived = [g[2] for g in outcome.growths.get(popped, ()) if g[0] < stamp]
        current = arrived[-1] if arrived else 0
        pre = 0
        for exit_key, flows in outcome.flows_of_entry.get(popped, ()):
            if _landing(plan, exit_key) != point:
                continue
            for guard, pins in flows:
                wanted = manager.restrict(header, cube_literals(pins, levels))
                pre = manager.or_(
                    pre, manager.and_(manager.and_(wanted, guard), current)
                )
        # A flow without pins maps the header to itself: keep it.
        header = pre if pre == header else one_header(pre)
        point = popped
    return None
