"""Recomposition: chain shard summaries along the plan's boundaries.

The recomposer runs in the compose context its summaries were
computed in, this thread's (:func:`~repro.compose.shard.model_of`):
their guards are nodes there and are read in place, and a summary of
any other context raises :class:`~repro.errors.ZenComposeError` rather
than be read as some other set.  It propagates header sets along the
plan's boundary map —
``arriving[entry] → flows → arriving[next entry]`` — to a fixpoint,
then intersects what reached the sink with the query target.  A set
``S`` arriving at an entry leaves at an exit as the union of that
pair's flows ``∃X. (S ∧ G) ∧ P`` (:mod:`~repro.compose.shard`): one
``and_exists`` per flow, exact for any ``S``, so one pass decides the
verdict in both directions.

A popped entry's flows are looked up in its shard's summary, by pair
key over the shard's exits, once per entry and call.  A fixpoint still
holding work after :data:`MAX_ITERATIONS` pops raises: a partial
verdict is never returned as a final one.  A call ends a query, so it
drops the context once that passed its bound
(:func:`~repro.compose.shard.settle`).

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
from typing import Any, Dict, List, Optional, Tuple

from ..core.transformers import TransformerContext
from ..errors import ZenComposeError
from ..telemetry.spans import span
from .cubes import assignment_header, cover_node, cube_literals
from .plan import Plan, parse_point, point_key
from .shard import model_of, settle

#: Canary bug id: chain every flow as a filter in the recomposer (named
#: for the assumption a flow's pins overwrite).
CANARY_DROP_ASSUMPTION = "compose-drop-assumption"

#: The growth records' key for headers delivered at the sink (never a
#: point key: device names hold no ``|``).
DELIVERED = "|delivered"

#: The fixpoint raises once it has popped this many entries with work
#: left (a k=6 fat-tree query pops 7).
MAX_ITERATIONS = 100_000

#: One growth of a point's set: ``(stamp, popped entry, grown set)``.
#: The source's initial set has stamp 0 and no popped entry.
Growth = Tuple[int, Optional[str], int]
#: A flow as a summary holds it: ``[guard node, pins]``.
Flow = List[Any]


def _landing(plan: Plan, exit_key: str) -> Optional[str]:
    """Where a flow leaving at `exit_key` lands: the next shard's
    entry, the sink, or (None) outside the analysed region.  A linked
    port hands the packet to its neighbour, so it never delivers."""
    landing = plan.boundary.get(exit_key)
    if landing is None and exit_key == point_key(plan.sink):
        return DELIVERED
    return landing


@dataclass
class RecomposeOutcome:
    """What one recompose fixpoint established."""

    hit_node: int  # delivered ∩ target, in `context`
    context: TransformerContext
    levels: List[int]  # the context's header block
    #: Each popped entry's ``(exit, flows)`` pairs.
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
    summaries: Dict[str, Dict[str, Any]],
    bug: Optional[str] = None,
) -> RecomposeOutcome:
    """Chain shard summaries along the plan's boundaries to a fixpoint.

    `summaries` maps shard ids to summaries computed in this thread's
    compose context; the fixpoint runs there and reads them in place.
    """
    model = model_of(summaries.values())
    levels = model.levels
    manager = model.context.manager
    canary = bug == CANARY_DROP_ASSUMPTION
    exits = {task["shard_id"]: task["exits"] for task in plan.shards}
    flows_of_entry: Dict[str, List[Tuple[str, List[Flow]]]] = {}
    outcome = RecomposeOutcome(0, model.context, levels, flows_of_entry)

    def flows_from(entry_key: str) -> List[Tuple[str, List[Flow]]]:
        found = flows_of_entry.get(entry_key)
        if found is None:
            shard_id = plan.shard_of[parse_point(entry_key)[0]]
            images = summaries[shard_id]["images"]
            found = flows_of_entry[entry_key] = []
            for exit_key in map(point_key, exits[shard_id]):
                flows = images.get(f"{entry_key}|{exit_key}")
                if flows is not None:
                    found.append((exit_key, flows))
        return found

    source_key = point_key(plan.source)
    arriving: Dict[str, int] = {
        source_key: cover_node(manager, levels, plan.headers)
    }
    growths = outcome.growths
    growths[source_key] = [(0, None, arriving[source_key])]
    worklist = [source_key]

    with span("compose.recompose", shards=len(plan.shards)) as live:
        while worklist:
            if outcome.iterations == MAX_ITERATIONS:
                raise ZenComposeError(
                    f"the recompose fixpoint stopped after {MAX_ITERATIONS} "
                    f"pops with {len(worklist)} entries still to pop: its "
                    "verdict would be partial"
                )
            outcome.iterations += 1
            entry_key = worklist.pop()
            current = arriving.get(entry_key, 0)
            if current == 0:
                continue
            for exit_key, flows in flows_from(entry_key):
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
    settle()
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
