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
from .cubes import Cube, cover_node, cube_literals, header_sets
from .plan import Plan, parse_point, point_key

#: Canary bug id: drop interface-assumption discharge in the recomposer.
CANARY_DROP_ASSUMPTION = "compose-drop-assumption"


@dataclass
class RecomposeOutcome:
    """What one recompose fixpoint established."""

    hit_node: int  # delivered ∩ target, in `context`
    context: TransformerContext
    levels: List[int]  # the context's header block
    assumption_failures: Set[str] = field(default_factory=set)
    iterations: int = 0

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
    flows_of_entry: Dict[str, List[Tuple[str, List[Tuple[int, Cube]]]]] = {}
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

    sink_key = point_key(plan.sink)
    outcome = RecomposeOutcome(0, context, levels)
    arriving: Dict[str, int] = {
        point_key(plan.source): cover_node(manager, levels, plan.headers)
    }
    delivered = 0
    worklist = [point_key(plan.source)]

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
                if flowed == 0:
                    continue
                if exit_key == sink_key:
                    delivered = manager.or_(delivered, flowed)
                    continue
                next_entry = plan.boundary.get(exit_key)
                if next_entry is None:
                    continue  # exits the analysed region; drops
                grown = manager.or_(arriving.get(next_entry, 0), flowed)
                if grown != arriving.get(next_entry, 0):
                    arriving[next_entry] = grown
                    if next_entry not in worklist:
                        worklist.append(next_entry)

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
