"""Recomposition: chain shard images and discharge assumptions.

The recomposer runs in the parent process over its *own* transformer
context.  It propagates header sets along the plan's boundary map —
``arriving[entry] → image → arriving[next entry]`` — to a fixpoint,
then intersects what reached the sink with the query target.

Assume-guarantee bookkeeping is judged against the *converged*
arriving sets (judging mid-fixpoint would never stabilise under
escalation, because intermediate worklist pops see partially-grown
sets):

* **Discharge** — every entry's final arriving set must be contained
  in the assumption its shard was summarised under; a violation means
  the images say nothing about the uncovered headers and the verdict
  cannot be trusted in *either* direction.  The driver escalates such
  shards with exact entry assumptions.
* **Exactness** — a ``filters_only`` shard never rewrites headers, so
  its true image of ``S`` is ``S ∩ image(assumption)`` and the chained
  set stays exact.  A rewriting shard's image is the image of its
  whole assumption: exact precisely when the converged arriving set
  *equals* that assumption (escalation re-dispatches converge towards
  this), otherwise an over-approximation — sound for "unreachable",
  *tainted* for "reachable".

Each summary's sets arrive as references into its one node table
(:func:`~repro.compose.cubes.header_sets`), imported once per summary
before the fixpoint starts; every image is exact, so no summary is
ever "unknown".

The injectable canary bug ``compose-drop-assumption`` (see
``repro.fuzz``) lives here: it skips discharge and treats rewriting
shards as filters, which silently corrupts verdicts on NAT topologies
— exactly the class of unsoundness the differential fuzz farm exists
to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.transformers import TransformerContext
from ..network import Header
from ..telemetry.spans import span
from .cubes import cover_node, header_sets
from .plan import Plan, parse_point, point_key

#: Canary bug id: drop interface-assumption discharge in the recomposer.
CANARY_DROP_ASSUMPTION = "compose-drop-assumption"


@dataclass
class RecomposeOutcome:
    """What one recompose fixpoint established."""

    hit_node: int  # delivered ∩ target, in `context`
    context: TransformerContext
    levels: List[int]  # the context's header block
    tainted_shards: Set[str] = field(default_factory=set)
    assumption_failures: Set[str] = field(default_factory=set)
    iterations: int = 0
    arriving: Dict[str, int] = field(default_factory=dict)

    @property
    def trusted(self) -> bool:
        """Whether the verdict needs no escalation in either direction."""
        if self.assumption_failures:
            return False
        return self.hit_node == 0 or not self.tainted_shards


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

    # Import each summary's node table once: its assumption ("" below),
    # per-entry assumptions, and images indexed by entry for the worklist.
    assumption_nodes: Dict[str, Dict[str, int]] = {}
    images_of_entry: Dict[str, List[Tuple[str, int]]] = {}
    for sid, summary in summaries.items():
        echoed = summary.get("entry_assumptions") or {}
        images = summary["images"]
        nodes = iter(
            header_sets(
                manager,
                levels,
                summary["table"],
                [summary["assumption"], *echoed.values(), *images.values()],
            )
        )
        per_entry = assumption_nodes[sid] = {"": next(nodes)}
        per_entry.update(zip(echoed, nodes))
        for pair, image in zip(images, nodes):
            entry_key, exit_key = pair.split("|", 1)
            images_of_entry.setdefault(entry_key, []).append((exit_key, image))

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
            sid = shard_at(entry_key)
            if current == 0 or sid is None:
                continue
            summary = summaries[sid]
            exact_summary = summary.get("filters_only") or canary
            for exit_key, image in images_of_entry.get(entry_key, ()):
                if exact_summary:
                    flowed = manager.and_(current, image)
                else:
                    flowed = image  # whole-assumption image; judged below
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

        # Judge discharge and exactness against the converged sets.
        if not canary:
            for entry_key, final in arriving.items():
                sid = shard_at(entry_key)
                if final == 0 or sid is None:
                    continue
                per_entry = assumption_nodes[sid]
                assumed = per_entry.get(entry_key, per_entry[""])
                if manager.diff(final, assumed) != 0:
                    outcome.assumption_failures.add(sid)
                # Exact when summarised under exactly this arriving set.
                exact_here = entry_key in per_entry and final == assumed
                if not (summaries[sid].get("filters_only") or exact_here):
                    outcome.tainted_shards.add(sid)

        target_node = cover_node(manager, levels, plan.target)
        outcome.hit_node = manager.and_(delivered, target_node)
        outcome.arriving = arriving
        live.set("iterations", outcome.iterations)
        live.set("tainted", len(outcome.tainted_shards))
        live.set("assumption_failures", len(outcome.assumption_failures))
        live.set("hit", outcome.hit_node != 0)
    return outcome
