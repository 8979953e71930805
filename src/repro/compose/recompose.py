"""Recomposition: chain shard summaries and discharge assumptions.

The recomposer runs in the parent process over its *own* transformer
context.  It propagates header sets along the plan's boundary map —
``arriving[entry] → flows → arriving[next entry]`` — to a fixpoint,
then intersects what reached the sink with the query target.  A set
``S`` arriving at an entry leaves at an exit as the union of that
pair's flows ``∃X. (S ∧ G) ∧ P`` (:mod:`~repro.compose.shard`): one
``and_exists`` per flow, exact for any ``S`` inside the shard's
assumption, so one pass decides the verdict in both directions.

**Discharge** is judged against the *converged* arriving sets: every
entry's final arriving set must be contained in the assumption its
shard was summarised under.  The planner only assumes what it can
prove (the query's ``headers`` when nothing rewrites, the universe
otherwise), so a violation is a planner bug; the outcome is then not
``trusted`` and the driver raises.

Each summary's sets arrive as references into its one node table
(:func:`~repro.compose.cubes.header_sets`), imported once per summary
before the fixpoint starts.

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
``repro.fuzz``) lives here: it skips discharge and chains every flow
as a filter, ``S ∧ G ∧ P``, forgetting that the pinned bits were
overwritten — which silently corrupts verdicts on NAT topologies,
exactly the class of unsoundness the differential fuzz farm exists to
catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Set, Tuple

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
from .plan import Plan, parse_point, point_key

#: Canary bug id: drop interface-assumption discharge in the recomposer.
CANARY_DROP_ASSUMPTION = "compose-drop-assumption"

#: The growth records' key for headers delivered at the sink (never a
#: point key: device names hold no ``|``).
DELIVERED = "|delivered"

#: One growth of a point's set: ``(stamp, popped entry, grown set)``.
#: The source's initial set has stamp 0 and no popped entry.
Growth = Tuple[int, Optional[str], int]
Flow = Tuple[int, Cube]


def _landing(plan: Plan, exit_key: str) -> Optional[str]:
    """Where a flow leaving at `exit_key` lands: the sink, the next
    shard's entry, or (None) outside the analysed region."""
    if exit_key == point_key(plan.sink):
        return DELIVERED
    return plan.boundary.get(exit_key)


@dataclass
class RecomposeOutcome:
    """What one recompose fixpoint established."""

    hit_node: int  # delivered ∩ target, in `context`
    context: TransformerContext
    levels: List[int]  # the context's header block
    assumption_failures: Set[str] = field(default_factory=set)
    iterations: int = 0
    #: Every growth of each point's set, in stamp order.
    growths: Dict[str, List[Growth]] = field(default_factory=dict)
    #: Each entry's ``(exit, flows)`` pairs, as imported.
    flows_of_entry: Dict[str, List[Tuple[str, List[Flow]]]] = field(
        default_factory=dict
    )

    @property
    def trusted(self) -> bool:
        """Whether every arriving set discharged its shard's assumption."""
        return not self.assumption_failures


def recompose(
    plan: Plan,
    summaries: Dict[str, Dict[str, Any]],
    bug: Optional[str] = None,
    max_iterations: int = 100_000,
) -> RecomposeOutcome:
    """Chain shard summaries along the plan's boundaries to a fixpoint."""
    context = TransformerContext()
    header_type = context.universe(Header).zen_type
    levels = context.space(header_type).levels
    manager = context.manager
    canary = bug == CANARY_DROP_ASSUMPTION

    # Import each summary's node table once: its assumption, and the
    # flows ``(guard, pins)`` of every pair indexed by entry for the
    # worklist.
    assumptions: Dict[str, int] = {}
    outcome = RecomposeOutcome(0, context, levels)
    flows_of_entry = outcome.flows_of_entry
    for sid, summary in summaries.items():
        images = summary["images"]
        flat = [flow for flows in images.values() for flow in flows]
        nodes = header_sets(
            manager,
            levels,
            summary["table"],
            [summary["assumption"], *(ref for ref, _ in flat)],
        )
        assumptions[sid] = nodes[0]
        imported = iter(zip(nodes[1:], (pins for _, pins in flat)))
        for pair, flows in images.items():
            entry_key, exit_key = pair.split("|", 1)
            flows_of_entry.setdefault(entry_key, []).append(
                (exit_key, list(islice(imported, len(flows))))
            )

    source_key = point_key(plan.source)
    arriving: Dict[str, int] = {
        source_key: cover_node(manager, levels, plan.headers)
    }
    growths = outcome.growths
    growths[source_key] = [(0, None, arriving[source_key])]
    worklist = [source_key]

    def shard_at(entry_key: str) -> Optional[str]:
        sid = plan.shard_of.get(parse_point(entry_key)[0])
        return sid if sid in summaries else None

    with span("compose.recompose", shards=len(summaries)) as live:
        while worklist and outcome.iterations < max_iterations:
            outcome.iterations += 1
            entry_key = worklist.pop()
            current = arriving.get(entry_key, 0)
            if current == 0 or shard_at(entry_key) is None:
                continue
            for exit_key, flows in flows_of_entry.get(entry_key, ()):
                flowed = 0
                for guard, pins in flows:
                    pinned = cube_literals(pins, levels)
                    if canary:
                        image = manager.and_(current, guard)
                    else:
                        image = manager.and_exists(current, guard, pinned)
                    image = manager.and_(image, manager.cube(pinned))
                    flowed = manager.or_(flowed, image)
                landing = _landing(plan, exit_key)
                if flowed == 0 or landing is None:
                    continue  # nothing flows, or it leaves the region
                grown = manager.or_(arriving.get(landing, 0), flowed)
                if grown != arriving.get(landing, 0):
                    arriving[landing] = grown
                    growths.setdefault(landing, []).append(
                        (outcome.iterations, entry_key, grown)
                    )
                    if landing != DELIVERED and landing not in worklist:
                        worklist.append(landing)

        delivered = arriving.pop(DELIVERED, 0)
        # Judge discharge against the converged sets.
        if not canary:
            for entry_key, final in arriving.items():
                sid = shard_at(entry_key)
                if sid is not None and manager.diff(final, assumptions[sid]):
                    outcome.assumption_failures.add(sid)

        target_node = cover_node(manager, levels, plan.target)
        outcome.hit_node = manager.and_(delivered, target_node)
        live.set("iterations", outcome.iterations)
        live.set("assumption_failures", len(outcome.assumption_failures))
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
