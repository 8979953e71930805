"""The compose driver: summarise a topology once, recompose each query.

:func:`run_composed` is the public entry point of the compositional
sharding subsystem.  It answers one end-to-end reachability or
invariant query from its topology's shard summaries
(:mod:`~repro.compose.plan`), each computed in the calling thread by
:func:`~repro.compose.shard.compute_shard_summary`, and chains them
back together (:mod:`~repro.compose.recompose`).

**Held fabrics.**  Each thread's compose context
(:mod:`~repro.compose.shard`) keeps a bounded memo, keyed by the
topology payload pickled, of what a query needs and no query changes:
the validated plan, its shard summaries (their guards nodes of that
context) and one :class:`~repro.network.Network` for witness replay.
A query on a held topology runs ``validate_query``, the recompose
fixpoint, ``walk_back`` and the witness walk, and summarises no shard.
Summaries are memoised apart in the same context, by the content of
their shard task (devices, links, entries, exits), so a topology met
for the first time summarises only the shards no held summary covers:
after a one-device edit, that device's shard.  A query naming a point
outside the plan extends that point's shard
(:func:`~repro.compose.plan.extend`), and the held plan keeps the
extension.  The rules are the context's:

* a budgeted query runs in a fresh context of its own, metered as a
  whole, so it neither reads nor fills this thread's memo;
* any exception drops this thread's context, its fabrics and
  summaries with it;
* :data:`MAX_HELD_FABRICS` fabrics and :data:`MAX_HELD_SUMMARIES`
  summaries bound the memo, and between queries the whole context is
  dropped once it passes its node or device bound
  (:data:`~repro.compose.shard.MAX_HELD_NODES`).

Every summary is exact for every arriving set, so one recompose pass
decides the verdict, and the same summaries justify it: a reachable
verdict carries a witness, NAT or not — an *initial* header walked
back from the hit through the summaries
(:func:`~repro.compose.recompose.walk_back`), then replayed concretely
from the query's source by :func:`~repro.network.simulate`, the one
walker of the Zen device models, which must leave the network at the
sink with a header inside the query's ``target`` cover.  No walk-back
header, or a replay that disagrees, raises
:class:`~repro.errors.ZenComposeError` — a wrong "reachable" is never
returned, and no second engine is asked.
"""

from __future__ import annotations

import json
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

from ..errors import ZenComposeError
from ..network import Header, Network, make_packet, simulate
from ..telemetry.metrics import METRICS
from ..telemetry.spans import span
from .cubes import in_cover
from .plan import Plan, extend, for_query, parse_point, plan_fabric, query_points
from .recompose import RecomposeOutcome, recompose, walk_back
from .shard import _ShardModel, compute_shard_summary, forget, query_context
from .topo import Point, build_network, validate_query, validate_topology

#: The shard entry as a service builder reference.  Compose never
#: dispatches through the service; the frozen
#: ``benchmarks/e2e/workloads.py`` still spawns its engine with it.
SHARD_BUILDER = "repro.compose.shard:compute_shard_summary"


@dataclass
class ComposedResult:
    """The composed verdict plus its decomposition record."""

    mode: str
    reachable: bool
    witness: Optional[Dict[str, int]]
    shard_count: int
    recompose_ms: float
    total_ms: float

    #: Re-dispatch rounds and second-engine answers; always 0 and
    #: False since summaries are exact for any input and every witness
    #: comes from them, kept because benchmark rows record them.
    escalations = 0
    monolith_fallback = False

    @property
    def holds(self) -> bool:
        """Invariant reading: no injected header is delivered on target."""
        return not self.reachable


def _content_key(value: Any) -> str:
    """`value` as canonical JSON: equal for equal content.  The text
    itself is the key (a digest would import ``hashlib``, whose
    OpenSSL library costs every process 3.7 MB of resident memory)."""
    return json.dumps(value, sort_keys=True)


#: A compose context holds at most this many fabrics and summaries.
#: A held k=6 fat tree costs about 0.66 MB, its five summaries
#: included, and a memoised summary about 60 kB; see DESIGN, *Held
#: fabrics*.
MAX_HELD_FABRICS = 2
MAX_HELD_SUMMARIES = 16


class _Fabric:
    """One topology's plan, its summaries by shard id, and its network
    for replay."""

    def __init__(self, topo: Dict[str, Any], plan: Plan) -> None:
        self.topo = topo
        self.plan = plan
        self.summaries: Dict[str, Dict[str, Any]] = {}
        self.network: Optional[Network] = None
        self.tasks: Dict[str, Dict[str, Any]] = {}  # summarised, by shard id

    def cover(
        self, points: Iterable[Point], memo: "OrderedDict[str, Dict[str, Any]]"
    ) -> int:
        """Make every point of `points` an entry and an exit, and
        summarise each shard that is new or changed: from `memo` by
        content, else computed into it.  Returns how many summaries
        were computed."""
        plan = extend(self.plan, points)
        stale = [t for t in plan.shards if self.tasks.get(t["shard_id"]) is not t]
        if not stale:
            return 0
        keys = [_content_key(task) for task in stale]
        missing = {key: task for key, task in zip(keys, stale) if key not in memo}
        METRICS.counter("compose.shards_dispatched").inc(len(missing))
        for key, task in missing.items():
            memo[key] = compute_shard_summary(task)
        for key, task in zip(keys, stale):
            memo.move_to_end(key)
            self.summaries[task["shard_id"]] = memo[key]
            self.tasks[task["shard_id"]] = task
        while len(memo) > MAX_HELD_SUMMARIES:
            memo.popitem(last=False)
        self.plan = plan
        self.network = build_network(self.topo, map(parse_point, plan.points))
        return len(missing)


def _held_fabric(model: _ShardModel, topo: Any) -> _Fabric:
    """The fabric `model` holds for `topo`'s content, planned on a miss.

    The key is the payload pickled: equal bytes load to equal content,
    and a payload that differs in anything, ``True`` for ``1`` included,
    only misses.  The fabric plans from the key's own copy, so a caller
    that edits its topology in place later changes only the key.
    """
    try:
        key = pickle.dumps(topo, pickle.HIGHEST_PROTOCOL)
    except Exception:
        validate_topology(topo)  # names what is malformed
        raise
    fabric = model.fabrics.get(key)
    if fabric is not None:
        model.fabrics.move_to_end(key)
        return fabric
    validate_topology(topo)
    held = pickle.loads(key)
    fabric = model.fabrics[key] = _Fabric(held, plan_fabric(held))
    while len(model.fabrics) > MAX_HELD_FABRICS:
        model.fabrics.popitem(last=False)
    return fabric


def _witness(
    network: Network,
    query: Dict[str, Any],
    plan: Plan,
    outcome: RecomposeOutcome,
) -> Dict[str, int]:
    """The hit's initial header, walked back, then walked from the
    source: it must leave at the sink with a header in the target."""
    witness = walk_back(plan, outcome)
    if witness is None:
        raise ZenComposeError(
            "no initial header walks back from the delivered hit: the "
            "recomposed verdict is not backed by its summaries"
        )
    (source, port), (sink, sink_port) = query["source"], query["sink"]
    entry = network.device(source).interface(int(port))
    trace = simulate(network, entry, make_packet(Header(**witness)))
    delivered = trace.delivered_at(f"{sink}:{int(sink_port)}")
    if delivered is None or not in_cover(plan.target, delivered.overlay_header):
        raise ZenComposeError(
            f"witness {witness} walks back through the summaries, but "
            f"its concrete replay ends {trace.outcome!r} with "
            f"{trace.final_packet}, not at the sink inside the target"
        )
    return witness


def run_composed(
    topo: Dict[str, Any],
    query: Dict[str, Any],
    engine=None,
    *,
    budget: Optional[Dict[str, Any]] = None,
    bug: Optional[str] = None,
) -> ComposedResult:
    """Answer a topology query by assume-guarantee decomposition.

    `topo` and `query` are the plain-JSON payloads documented in
    :mod:`~repro.compose.topo`.  Shard summaries are computed in the
    calling thread.  No code reads `engine`: it stays only because the
    frozen ``benchmarks/e2e/workloads.py`` passes one.  `budget` is a
    plain dict of :class:`~repro.core.Budget` fields: a budgeted query
    runs in a fresh compose context of its own, metered as a whole
    (``max_bdd_nodes`` counts its shards' nodes and its recompose's),
    and bypasses the held fabrics.  `bug`
    injects a known recomposer bug (fuzz-farm canary) — never set it
    outside tests.
    """
    started = time.monotonic()
    with query_context(budget) as model:
        METRICS.counter("compose.queries").inc()
        with span("compose.query", mode=query.get("mode", "reach")) as live:
            fabric = _held_fabric(model, topo)
            try:
                validate_query(topo, query)
                dispatched = fabric.cover(query_points(query), model.summaries)
                plan = for_query(fabric.plan, query)
                live.set("shards", len(plan.shards))
                METRICS.counter("compose.summaries_reused").inc(
                    len(plan.shards) - dispatched
                )

                recompose_started = time.monotonic()
                outcome = recompose(plan, fabric.summaries, bug=bug)
                recompose_ms = (time.monotonic() - recompose_started) * 1000.0
                reachable = outcome.hit_node != 0
                witness = (
                    _witness(fabric.network, query, plan, outcome)
                    if reachable
                    else None
                )
            except BaseException:
                forget()
                raise
            live.set("reachable", reachable)
    return ComposedResult(
        mode=plan.mode,
        reachable=reachable,
        witness=witness,
        shard_count=len(plan.shards),
        recompose_ms=recompose_ms,
        total_ms=(time.monotonic() - started) * 1000.0,
    )
