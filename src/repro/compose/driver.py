"""The compose driver: summarise a topology once, recompose each query.

:func:`run_composed` is the public entry point of the compositional
sharding subsystem.  It answers one end-to-end reachability or
invariant query from its topology's shard summaries
(:mod:`~repro.compose.plan`), each computed in the calling thread by
:func:`~repro.compose.shard.compute_shard_summary`, and chains them
back together (:mod:`~repro.compose.recompose`).

**Held fabrics.**  Each thread keeps a bounded memo, keyed by the
topology payload pickled, of what a query needs and no query changes:
the validated plan, its shard summaries, those summaries imported
once into a recompose context, and one
:class:`~repro.network.Network` for witness replay.  A query on a
held topology runs ``validate_query``, the recompose fixpoint,
``walk_back`` and the witness walk, and summarises no shard.  Summaries are
memoised apart, by the content of their shard task (devices, links,
entries, exits, budget), so a topology met for the first time
summarises only the shards no held summary covers: after a one-device
edit, that device's shard.  A query naming a point outside the plan
extends that point's shard (:func:`~repro.compose.plan.extend`), and
the held plan keeps the extension.  The rules are the shard model's
for its device memo:

* a budgeted query neither reads nor fills the memo: it plans,
  summarises and recomposes on its own;
* any exception drops the fabric it was answered from, with the
  summaries it holds;
* :data:`MAX_HELD_FABRICS` fabrics, :data:`MAX_HELD_SUMMARIES`
  summaries and :data:`MAX_FABRIC_NODES` nodes in a fabric's
  recompose context bound the memory.

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
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from ..core.budget import Budget
from ..errors import ZenComposeError
from ..network import Header, Network, make_packet, simulate
from ..telemetry.metrics import METRICS
from ..telemetry.spans import span
from .cubes import in_cover
from .plan import Plan, extend, for_query, parse_point, plan_fabric, query_points
from .recompose import ImportedSummaries, RecomposeOutcome, recompose, walk_back
from .shard import compute_shard_summary
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


#: A thread holds at most this many fabrics and summaries, and drops a
#: fabric once a query leaves its recompose context above this many
#: nodes.  A held k=6 fat tree costs about 1.1 MB and a memoised
#: summary about 9 kB; see DESIGN, *Held fabrics*.
MAX_HELD_FABRICS = 2
MAX_HELD_SUMMARIES = 64
MAX_FABRIC_NODES = 20_000


class _Fabric:
    """One topology's plan, its summaries imported for recompose, and
    its network for replay."""

    def __init__(self, topo: Dict[str, Any], plan: Plan) -> None:
        self.topo = topo
        self.plan = plan
        self.imported = ImportedSummaries()
        self.network: Optional[Network] = None
        self.tasks: Dict[str, Dict[str, Any]] = {}  # summarised, by shard id
        self.keys: List[str] = []  # their content keys

    def cover(self, points: Iterable[Point], memo: "OrderedDict[str, bytes]") -> int:
        """Make every point of `points` an entry and an exit, and
        summarise and import each shard that is new or changed: from
        `memo` by content, else computed into it.  Returns how many
        summaries were computed."""
        plan = extend(self.plan, points)
        stale = [t for t in plan.shards if self.tasks.get(t["shard_id"]) is not t]
        if not stale:
            return 0
        keys = [_content_key(task) for task in stale]
        missing = {key: task for key, task in zip(keys, stale) if key not in memo}
        METRICS.counter("compose.shards_dispatched").inc(len(missing))
        fresh = {key: compute_shard_summary(task) for key, task in missing.items()}
        for key, task in zip(keys, stale):
            self.keys.append(key)  # before it can fail: an error drops it
            summary = fresh.get(key)
            if summary is None:
                summary = pickle.loads(memo[key])
                memo.move_to_end(key)
            else:
                memo[key] = pickle.dumps(summary, pickle.HIGHEST_PROTOCOL)
            self.imported.add(summary)
            self.tasks[task["shard_id"]] = task
        while len(memo) > MAX_HELD_SUMMARIES:
            memo.popitem(last=False)
        self.plan = plan
        self.network = build_network(self.topo, map(parse_point, plan.points))
        return len(missing)


class _Held(threading.local):
    """This thread's fabrics by topology content, and summaries by
    shard content, least recently used first."""

    def __init__(self) -> None:
        self.fabrics: "OrderedDict[bytes, _Fabric]" = OrderedDict()
        self.summaries: "OrderedDict[str, bytes]" = OrderedDict()


_held = _Held()


def forget_fabrics() -> None:
    """Drop this thread's held fabrics and summaries."""
    _held.fabrics.clear()
    _held.summaries.clear()


def _drop(key: bytes) -> None:
    """Drop one held fabric and its summaries."""
    fabric = _held.fabrics.pop(key, None)
    if fabric is not None:
        for summary_key in fabric.keys:
            _held.summaries.pop(summary_key, None)


def _held_fabric(topo: Any) -> "tuple[bytes, _Fabric]":
    """The fabric held for `topo`'s content, planned on a miss.

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
    fabric = _held.fabrics.get(key)
    if fabric is not None:
        _held.fabrics.move_to_end(key)
        return key, fabric
    validate_topology(topo)
    held = pickle.loads(key)
    fabric = _held.fabrics[key] = _Fabric(held, plan_fabric(held))
    while len(_held.fabrics) > MAX_HELD_FABRICS:
        _held.fabrics.popitem(last=False)
    return key, fabric


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
    plain dict of :class:`~repro.core.Budget` fields threaded into
    every shard; a budgeted query bypasses the held fabrics.  `bug`
    injects a known recomposer bug (fuzz-farm canary) — never set it
    outside tests.
    """
    started = time.monotonic()
    Budget.from_dict(budget)  # a misspelt limit fails here, not in a shard
    METRICS.counter("compose.queries").inc()
    with span("compose.query", mode=query.get("mode", "reach")) as live:
        if budget is None:
            key, fabric = _held_fabric(topo)
            memo = _held.summaries
        else:
            validate_topology(topo)
            key, memo = None, OrderedDict()
            fabric = _Fabric(topo, plan_fabric(topo, budget))
        try:
            validate_query(topo, query)
            dispatched = fabric.cover(query_points(query), memo)
            plan = for_query(fabric.plan, query)
            live.set("shards", len(plan.shards))
            METRICS.counter("compose.summaries_reused").inc(
                len(plan.shards) - dispatched
            )

            recompose_started = time.monotonic()
            outcome = recompose(plan, fabric.imported, bug=bug)
            recompose_ms = (time.monotonic() - recompose_started) * 1000.0
            reachable = outcome.hit_node != 0
            witness = (
                _witness(fabric.network, query, plan, outcome) if reachable else None
            )
        except BaseException:
            if key is not None:
                _drop(key)
            raise
        nodes = fabric.imported.context.manager.num_nodes
        if key is not None and nodes > MAX_FABRIC_NODES:
            _held.fabrics.pop(key)  # its summaries stay: they are not at fault
        live.set("reachable", reachable)
        return ComposedResult(
            mode=plan.mode,
            reachable=reachable,
            witness=witness,
            shard_count=len(plan.shards),
            recompose_ms=recompose_ms,
            total_ms=(time.monotonic() - started) * 1000.0,
        )
