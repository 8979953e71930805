"""Shard planning: partition a topology into shards, once per topology.

The plan is a function of the topology, not of a query.  The planner
layers the devices by BFS distance from a fixed root — the least
device name of each connected component — and makes each layer one
shard.  Every link whose endpoints fall in different shards becomes a
*boundary*: the exit point on one side and the entry point on the
other are where one shard's summary hands headers to the next.  Every
boundary point, and every unlinked port that a device's FIB or ACLs
name, is both an entry and an exit of its shard, so one set of
summaries answers a query between any two such points.  A query that
names another point extends only the shard of that point's device
(:func:`extend`); nothing else about a query reaches the plan until
:func:`for_query` adds its source, sink and covers.

Assumption policy
-----------------
None: every shard is summarised under the universe.  A summary is
exact for every set that can arrive at its shard
(:mod:`~repro.compose.shard`), so a query's ``headers`` cover could
only bound that one query's work, and a plan that serves every query
has no cover to assume.  The universe costs once per topology, not
per query: the driver holds the summaries
(:mod:`~repro.compose.driver`), and on a k=6 fat tree (2-core Xeon,
in process, p50) a query's recompose fixpoint over them takes
0.17 ms.  Summarising the whole fabric takes 17.1 ms with its devices
built, where one query's shards under its own plan and cover took
10.7 ms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .cubes import Cover
from .topo import Point, validate_query, validate_topology


def point_key(point: Point) -> str:
    return f"{point[0]}:{point[1]}"


def pair_key(entry: Point, exit_: Point) -> str:
    return f"{point_key(entry)}|{point_key(exit_)}"


def parse_point(key: str) -> Point:
    device, _, port = key.rpartition(":")
    return (device, int(port))


@dataclass
class Plan:
    """A topology's shards, and the query they answer (None before
    :func:`for_query` names one)."""

    shards: List[Dict[str, Any]]
    boundary: Dict[str, str]  # exit point key -> entry point key
    shard_of: Dict[str, str]  # device -> shard id
    points: FrozenSet[str]  # every entry and exit, as point keys
    source: Optional[Point] = None
    sink: Optional[Point] = None
    mode: str = "reach"
    headers: Cover = None
    target: Cover = None


def _layers(devices: Dict[str, Any], links: List[Any]) -> List[List[str]]:
    """BFS layers from the least name of each connected component."""
    adjacency: Dict[str, Set[str]] = {name: set() for name in devices}
    for dev_a, _pa, dev_b, _pb in links:
        adjacency[dev_a].add(dev_b)
        adjacency[dev_b].add(dev_a)
    depth: Dict[str, int] = {}
    for root in sorted(devices):
        if root in depth:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            current = queue.popleft()
            for neighbour in sorted(adjacency[current]):
                if neighbour not in depth:
                    depth[neighbour] = depth[current] + 1
                    queue.append(neighbour)
    layers: List[List[str]] = [[] for _ in range(max(depth.values()) + 1)]
    for name in sorted(depth, key=lambda n: (depth[n], n)):
        layers[depth[name]].append(name)
    return layers


def plan_fabric(topo: Dict[str, Any]) -> Plan:
    """The shards of a validated topology, with no query."""
    devices = topo["devices"]
    links = topo.get("links", [])
    layers = _layers(devices, links)
    shard_of = {
        name: f"shard{i}" for i, layer in enumerate(layers) for name in layer
    }
    boundary: Dict[str, str] = {}
    points: Dict[str, Set[Point]] = {sid: set() for sid in shard_of.values()}
    internal: Dict[str, List[List[Any]]] = {sid: [] for sid in shard_of.values()}
    linked: Set[Point] = set()
    for dev_a, port_a, dev_b, port_b in links:
        a, b = (dev_a, int(port_a)), (dev_b, int(port_b))
        linked.update((a, b))
        sid_a, sid_b = shard_of[dev_a], shard_of[dev_b]
        if sid_a == sid_b:
            internal[sid_a].append([dev_a, port_a, dev_b, port_b])
            continue
        boundary[point_key(a)] = point_key(b)
        boundary[point_key(b)] = point_key(a)
        points[sid_a].add(a)
        points[sid_b].add(b)
    # Where packets enter and leave the fabric: the unlinked ports a
    # device's FIB or ACLs name.
    for name, spec in devices.items():
        named = {int(port) for _, port in spec.get("fib", [])}
        for side in ("acl_in", "acl_out"):
            named.update(int(port) for port in spec.get(side, {}))
        named.discard(0)  # the null port drops
        points[shard_of[name]].update(
            (name, port) for port in named if (name, port) not in linked
        )

    shards: List[Dict[str, Any]] = []
    for i, layer in enumerate(layers):
        sid = f"shard{i}"
        ends = sorted([d, p] for d, p in points[sid])
        shards.append(
            {
                "shard_id": sid,
                "devices": {name: devices[name] for name in layer},
                "links": internal[sid],
                "entries": ends,
                "exits": ends,
            }
        )
    return Plan(
        shards=shards,
        boundary=boundary,
        shard_of=shard_of,
        points=frozenset(point_key(p) for ends in points.values() for p in ends),
    )


def query_points(query: Dict[str, Any]) -> Tuple[Point, Point]:
    """A validated query's source and sink."""
    return (
        (query["source"][0], int(query["source"][1])),
        (query["sink"][0], int(query["sink"][1])),
    )


def extend(plan: Plan, points: Iterable[Point]) -> Plan:
    """`plan` with each of `points` an entry and an exit of its
    device's shard; `plan` itself when every one already is, so a
    caller can tell an extension by identity."""
    new = {p for p in points if point_key(p) not in plan.points}
    if not new:
        return plan
    extended = {plan.shard_of[device] for device, _ in new}
    shards = []
    for task in plan.shards:
        if task["shard_id"] in extended:
            ends = {(d, p) for d, p in task["entries"]}
            ends.update(p for p in new if plan.shard_of[p[0]] == task["shard_id"])
            listed = sorted([d, p] for d, p in ends)
            task = {**task, "entries": listed, "exits": listed}
        shards.append(task)
    return replace(
        plan, shards=shards, points=plan.points | {point_key(p) for p in new}
    )


def for_query(plan: Plan, query: Dict[str, Any]) -> Plan:
    """`plan` answering `query`, whose points it already holds."""
    source, sink = query_points(query)
    return replace(
        plan,
        source=source,
        sink=sink,
        mode=query.get("mode", "reach"),
        headers=query.get("headers"),
        target=query.get("target"),
    )


def plan_shards(topo: Dict[str, Any], query: Dict[str, Any]) -> Plan:
    """Validate `topo` and `query` and plan the topology for the query."""
    validate_topology(topo)
    validate_query(topo, query)
    return for_query(extend(plan_fabric(topo), query_points(query)), query)
