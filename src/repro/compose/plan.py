"""Shard planning: partition a topology into assume-guarantee shards.

The planner layers the topology by BFS distance from the query source
and makes each layer one shard.  Every link whose endpoints fall in
different shards becomes a *boundary*: the exit point on one side and
the entry point on the other are where interface assumptions are
stated and discharged.  Devices unreachable from the source over links
can never carry the query's packets and are dropped from the plan
(recorded, not silent).

Assumption policy
-----------------
When no device in the topology rewrites headers, every header anywhere
in the network is one of the originally injected headers, so the
query's ``headers`` cover is a valid interface assumption for *every*
shard — workers then restrict their guards to it, which keeps the
per-shard BDDs small.  With NAT present the planner makes no interface
assumption (universe); a summary is exact for every arriving set
either way (:mod:`~repro.compose.shard`), so the assumption only
bounds the work, never the answer.  It stays because that bound is
not free to drop: without it, ``compose_fattree``'s recompose went
0.55 → 2.5–2.8 ms and its pickled summary 1.44 → 2.5 kB (two traced
pairs), and ``verdict_s_p50`` 0–13 % worse (three alternated pairs).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from .cubes import Cover
from .topo import Point, has_nat, validate_query, validate_topology


def point_key(point: Point) -> str:
    return f"{point[0]}:{point[1]}"


def pair_key(entry: Point, exit_: Point) -> str:
    return f"{point_key(entry)}|{point_key(exit_)}"


def parse_point(key: str) -> Point:
    device, _, port = key.rpartition(":")
    return (device, int(port))


@dataclass
class Plan:
    """A sharded decomposition of one topology query."""

    shards: List[Dict[str, Any]]
    boundary: Dict[str, str]  # exit point key -> entry point key
    shard_of: Dict[str, str]  # device -> shard id
    source: Point
    sink: Point
    mode: str
    headers: Cover
    target: Cover
    dropped_devices: List[str] = field(default_factory=list)


def _bfs_layers(
    devices: Dict[str, Any], links: List[Any], source_device: str
) -> List[List[str]]:
    adjacency: Dict[str, Set[str]] = {name: set() for name in devices}
    for dev_a, _pa, dev_b, _pb in links:
        adjacency[dev_a].add(dev_b)
        adjacency[dev_b].add(dev_a)
    depth = {source_device: 0}
    queue = deque([source_device])
    while queue:
        current = queue.popleft()
        for neighbour in sorted(adjacency[current]):
            if neighbour not in depth:
                depth[neighbour] = depth[current] + 1
                queue.append(neighbour)
    layers: List[List[str]] = []
    for name in sorted(depth, key=lambda n: (depth[n], n)):
        while len(layers) <= depth[name]:
            layers.append([])
        layers[depth[name]].append(name)
    return layers


def plan_shards(
    topo: Dict[str, Any],
    query: Dict[str, Any],
    budget: Optional[Dict[str, Any]] = None,
) -> Plan:
    """Decompose `query` over `topo` into per-layer shard tasks."""
    validate_topology(topo)
    validate_query(topo, query)
    devices = topo["devices"]
    links = topo.get("links", [])
    source: Point = (query["source"][0], int(query["source"][1]))
    sink: Point = (query["sink"][0], int(query["sink"][1]))
    headers: Cover = query.get("headers")
    layers = _bfs_layers(devices, links, source[0])
    reached = {name for layer in layers for name in layer}
    dropped = sorted(set(devices) - reached)

    shard_of = {
        name: f"shard{i}" for i, layer in enumerate(layers) for name in layer
    }
    assumption = headers if not has_nat(topo) else None

    # Boundary links: exits on one side feed entries on the other.
    boundary: Dict[str, str] = {}
    entries: Dict[str, Set[Point]] = {sid: set() for sid in set(shard_of.values())}
    exits: Dict[str, Set[Point]] = {sid: set() for sid in set(shard_of.values())}
    internal: Dict[str, List[List[Any]]] = {
        sid: [] for sid in set(shard_of.values())
    }
    for dev_a, port_a, dev_b, port_b in links:
        if dev_a not in shard_of or dev_b not in shard_of:
            continue  # touches a dropped device
        sid_a, sid_b = shard_of[dev_a], shard_of[dev_b]
        if sid_a == sid_b:
            internal[sid_a].append([dev_a, port_a, dev_b, port_b])
            continue
        a, b = (dev_a, int(port_a)), (dev_b, int(port_b))
        boundary[point_key(a)] = point_key(b)
        boundary[point_key(b)] = point_key(a)
        exits[sid_a].add(a)
        entries[sid_b].add(b)
        exits[sid_b].add(b)
        entries[sid_a].add(a)

    entries[shard_of[source[0]]].add(source)
    # A linked sink port can never deliver (the link hands the packet
    # to the neighbour first), so it is not an exit.
    if sink[0] in shard_of and point_key(sink) not in boundary:
        linked = {
            (dev, int(port))
            for dev_a, port_a, dev_b, port_b in links
            for dev, port in ((dev_a, port_a), (dev_b, port_b))
        }
        if sink not in linked:
            exits[shard_of[sink[0]]].add(sink)

    shards: List[Dict[str, Any]] = []
    for i, layer in enumerate(layers):
        sid = f"shard{i}"
        shards.append(
            {
                "shard_id": sid,
                "devices": {name: devices[name] for name in layer},
                "links": internal[sid],
                "entries": sorted([d, p] for d, p in entries[sid]),
                "exits": sorted([d, p] for d, p in exits[sid]),
                "assumption": assumption,
                "budget": budget,
            }
        )
    return Plan(
        shards=shards,
        boundary=boundary,
        shard_of=shard_of,
        source=source,
        sink=sink,
        mode=query.get("mode", "reach"),
        headers=headers,
        target=query.get("target"),
        dropped_devices=dropped,
    )
