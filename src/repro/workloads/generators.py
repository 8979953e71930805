"""Seeded random workload generators for the evaluation (§7).

The paper "generated ACLs and route maps of different sizes randomly";
these generators reproduce that setup deterministically so benchmark
runs are comparable.

Determinism contract
--------------------
No function here ever touches module-level ``random`` state: every
generator either takes an explicit ``random.Random`` (``rng=``) or
derives one from an explicit ``seed``.  Identical (seed, size) inputs
produce identical workloads on every platform and in every process —
the property the differential fuzzing farm (:mod:`repro.fuzz`) relies
on to make its repro artifacts replayable from a seed alone.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..network.acl import Acl, AclRule
from ..network.ip import Prefix
from ..network.nat import NatRule
from ..network.packet import Header, make_header
from ..network.routemap import PrefixRange, RouteMap, RouteMapClause

__all__ = [
    "resolve_rng",
    "maybe_int",
    "random_prefix",
    "random_port_range",
    "random_acl_rule",
    "random_acl",
    "random_route_map",
    "random_nat_rule",
    "random_header",
    "chain_topology",
    "chain_query",
    "fat_tree",
    "fat_tree_device",
    "fat_tree_device_names",
    "fat_tree_hosts",
    "fat_tree_host_address",
    "fat_tree_reach_query",
]


def resolve_rng(seed: int = 0, rng: Optional[random.Random] = None) -> random.Random:
    """The stream a generator should draw from.

    An explicit ``rng`` wins (callers composing several generators
    thread one stream through all of them); otherwise a fresh
    ``random.Random(seed)`` keeps the historical seed-based behaviour.
    """
    return rng if rng is not None else random.Random(seed)


def random_prefix(rng: random.Random, min_len: int = 8, max_len: int = 32) -> Prefix:
    """A random IPv4 prefix with length in [min_len, max_len]."""
    length = rng.randint(min_len, max_len)
    address = rng.getrandbits(32)
    return Prefix(address, length)


def maybe_int(
    rng: random.Random, probability: float, low: int, high: int
) -> Optional[int]:
    """An int in [low, high] with `probability`, else None."""
    return rng.randint(low, high) if rng.random() < probability else None


def random_port_range(rng: random.Random) -> Optional[Tuple[int, int]]:
    """A random port interval, or None (no port match) half the time."""
    if rng.random() < 0.5:
        return None
    low = rng.randint(0, 65535)
    high = rng.randint(low, 65535)
    return (low, high)


def random_acl_rule(rng: random.Random, min_len: int = 8, max_len: int = 32) -> AclRule:
    """One random ACL line (no catch-all logic; see :func:`random_acl`)."""
    return AclRule(
        action=rng.random() < 0.5,
        src=random_prefix(rng, min_len, max_len),
        dst=random_prefix(rng, min_len, max_len),
        src_ports=random_port_range(rng),
        dst_ports=random_port_range(rng),
        protocol=rng.choice([None, 1, 6, 17]),
    )


def random_acl(
    num_rules: int, seed: int = 0, rng: Optional[random.Random] = None
) -> Acl:
    """A random ACL with `num_rules` lines plus a final catch-all.

    The last line is a catch-all permit so the Figure-10 query ("find
    a packet matching the last line") requires reasoning about every
    preceding line.
    """
    rng = resolve_rng(seed, rng)
    rules: List[AclRule] = []
    for _ in range(max(num_rules - 1, 0)):
        rules.append(random_acl_rule(rng))
    rules.append(AclRule(action=True))
    return Acl.of(f"random-{seed}-{num_rules}", rules)


def random_route_map(
    num_clauses: int, seed: int = 0, rng: Optional[random.Random] = None
) -> RouteMap:
    """A random route map with `num_clauses` stanzas plus a catch-all."""
    rng = resolve_rng(seed, rng)
    clauses: List[RouteMapClause] = []
    for _ in range(max(num_clauses - 1, 0)):
        prefix = random_prefix(rng, min_len=8, max_len=24)
        ge = rng.randint(prefix.length, 32)
        le = rng.randint(ge, 32)
        clauses.append(
            RouteMapClause(
                action=rng.random() < 0.5,
                match_prefixes=(PrefixRange(prefix, ge=ge, le=le),),
                match_community=maybe_int(rng, 0.3, 1, 1 << 16),
                set_local_pref=maybe_int(rng, 0.5, 0, 400),
                set_med=maybe_int(rng, 0.3, 0, 100),
                add_community=maybe_int(rng, 0.3, 1, 1 << 16),
            )
        )
    clauses.append(RouteMapClause(action=True))
    return RouteMap.of(f"random-{seed}-{num_clauses}", clauses)


def random_nat_rule(rng: random.Random) -> NatRule:
    """One random stateless NAT rule (match prefixes + rewrites)."""
    return NatRule(
        match_src=random_prefix(rng, min_len=0, max_len=24),
        match_dst=random_prefix(rng, min_len=0, max_len=24),
        translate_src=(
            random_prefix(rng, min_len=8, max_len=24)
            if rng.random() < 0.5
            else None
        ),
        translate_dst=(
            random_prefix(rng, min_len=8, max_len=24)
            if rng.random() < 0.5
            else None
        ),
        set_src_port=maybe_int(rng, 0.25, 0, 65535),
        set_dst_port=maybe_int(rng, 0.25, 0, 65535),
    )


def random_header(rng: random.Random) -> Header:
    """A uniformly random concrete five-tuple header."""
    return make_header(
        dst_ip=rng.getrandbits(32),
        src_ip=rng.getrandbits(32),
        dst_port=rng.getrandbits(16),
        src_port=rng.getrandbits(16),
        protocol=rng.getrandbits(8),
    )


# ----------------------------------------------------------------------
# Shardable topologies (compositional verification workloads)
# ----------------------------------------------------------------------
#
# These builders emit the plain-JSON topology payload consumed by
# :mod:`repro.compose`: picklable dicts of devices, links, and planner
# group hints.  Every builder is addressable as a stable ``module:attr``
# reference with plain arguments, so a compose shard can name exactly
# the sub-topology it needs inside a ``QuerySpec`` and any worker
# process rebuilds it bit-for-bit.  Per-device randomness (uplink
# choice, ACL sprinkling) is derived from ``(seed, device-name)`` — the
# same trick as the fuzz farm's ``scenario_rng`` — so the full-fabric,
# per-pod, and per-device builders agree by construction.


def _device_rng(seed: int, name: str) -> random.Random:
    """Deterministic per-device stream, platform-independent."""
    return random.Random(f"repro-topo:{seed}:{name}")


def _sprinkle_acl(rng: random.Random, probability: float) -> Optional[list]:
    """An ACL that denies traffic outside 10/8 but never 10/8 itself.

    Keeps sprinkled topologies' 10.x reachability verdicts identical to
    the plain fabric while still exercising ACL model paths.
    """
    if probability <= 0.0 or rng.random() >= probability:
        return None
    denied = rng.randint(20, 200) << 24
    return [
        {"action": False, "src": [0, 0], "dst": [denied, 8]},
        {"action": True, "src": [0, 0], "dst": [0, 0]},
    ]


def chain_topology(
    num_devices: int,
    seed: int = 0,
    *,
    fib_rules: int = 3,
    nat_probability: float = 0.0,
    acl_probability: float = 0.0,
) -> dict:
    """A linear chain of `num_devices` forwarding devices.

    Device ``d<i>`` receives on port 1 and forwards on port 2 into
    ``d<i+1>``; ``d0:1`` is the external entry and ``d<N-1>:2`` the
    external exit.  Each device keeps a random FIB biased toward the
    forwarding port plus a default-forward rule, optionally an ingress
    NAT and ACLs — the hand-rolled analogue of the fuzz farm's path
    scenarios, here in the compose payload format.
    """
    if num_devices < 1:
        raise ValueError("chain_topology needs at least one device")
    devices = {}
    links = []
    for i in range(num_devices):
        name = f"d{i}"
        rng = _device_rng(seed, name)
        fib = [
            [[rng.getrandbits(32), rng.randint(8, 24)], rng.choice((2, 2, 2, 3))]
            for _ in range(max(fib_rules - 1, 0))
        ]
        fib.append([[0, 0], 2])
        desc: dict = {"fib": fib}
        if nat_probability > 0.0 and rng.random() < nat_probability:
            desc["nat"] = [
                {
                    "match_src": [0, 0],
                    "match_dst": [rng.getrandbits(32), rng.randint(0, 16)],
                    "translate_dst": [rng.getrandbits(32), rng.randint(8, 24)],
                }
            ]
        acl = _sprinkle_acl(rng, acl_probability)
        if acl is not None:
            desc["acl_in"] = {"1": acl}
        devices[name] = desc
        if i + 1 < num_devices:
            links.append([name, 2, f"d{i + 1}", 1])
    return {"devices": devices, "links": links, "groups": {}}


def chain_query(
    num_devices: int,
    headers: Optional[list] = None,
    target: Optional[list] = None,
    mode: str = "reach",
) -> dict:
    """The end-to-end query matching :func:`chain_topology`'s boundary."""
    return {
        "mode": mode,
        "source": ["d0", 1],
        "sink": [f"d{num_devices - 1}", 2],
        "headers": headers,
        "target": target,
    }


def fat_tree_host_address(pod: int, edge: int, host: int) -> int:
    """The deterministic 10.pod.edge.host+2 address of a fat-tree host."""
    return (10 << 24) | (pod << 16) | (edge << 8) | (host + 2)


def _check_fat_tree_args(k: int, hosts_per_edge: int) -> None:
    if k < 2 or k % 2:
        raise ValueError("fat_tree needs an even k >= 2")
    if not 1 <= hosts_per_edge <= k // 2:
        raise ValueError("hosts_per_edge must be in [1, k/2]")


def fat_tree_device_names(k: int, hosts_per_edge: int = 1) -> List[str]:
    """Every device name of the (k, hosts_per_edge) fat-tree, in order."""
    _check_fat_tree_args(k, hosts_per_edge)
    half = k // 2
    names = [f"core{c}" for c in range(half * half)]
    for p in range(k):
        names.extend(f"agg_{p}_{a}" for a in range(half))
        names.extend(f"edge_{p}_{e}" for e in range(half))
        for e in range(half):
            names.extend(f"host_{p}_{e}_{h}" for h in range(hosts_per_edge))
    return names


def fat_tree_hosts(k: int, hosts_per_edge: int = 1) -> List[str]:
    """Just the host device names of the fat-tree."""
    return [
        name
        for name in fat_tree_device_names(k, hosts_per_edge)
        if name.startswith("host_")
    ]


def fat_tree_device(
    k: int,
    name: str,
    seed: int = 0,
    hosts_per_edge: int = 1,
    acl_probability: float = 0.0,
) -> dict:
    """One fat-tree device description (a per-device shard builder ref).

    Identical to the entry ``fat_tree(...)["devices"][name]`` would
    hold — per-device randomness is keyed on ``(seed, name)``, never on
    construction order.
    """
    _check_fat_tree_args(k, hosts_per_edge)
    half = k // 2
    rng = _device_rng(seed, name)
    parts = name.split("_")
    if name.startswith("core"):
        c = int(name[4:])
        if not 0 <= c < half * half:
            raise ValueError(f"no such core switch: {name}")
        fib = [
            [[(10 << 24) | (p << 16), 16], p + 1] for p in range(k)
        ]
    elif name.startswith("agg_"):
        p, a = int(parts[1]), int(parts[2])
        if not (0 <= p < k and 0 <= a < half):
            raise ValueError(f"no such aggregation switch: {name}")
        fib = [
            [[(10 << 24) | (p << 16) | (e << 8), 24], e + 1]
            for e in range(half)
        ]
        fib.append([[0, 0], half + 1 + rng.randrange(half)])
    elif name.startswith("edge_"):
        p, e = int(parts[1]), int(parts[2])
        if not (0 <= p < k and 0 <= e < half):
            raise ValueError(f"no such edge switch: {name}")
        fib = [
            [[fat_tree_host_address(p, e, h), 32], h + 1]
            for h in range(hosts_per_edge)
        ]
        fib.append([[0, 0], half + 1 + rng.randrange(half)])
    elif name.startswith("host_"):
        p, e, h = int(parts[1]), int(parts[2]), int(parts[3])
        if not (0 <= p < k and 0 <= e < half and 0 <= h < hosts_per_edge):
            raise ValueError(f"no such host: {name}")
        # Port 1 is the uplink; port 2 is unlinked local delivery (the
        # sink boundary reachability queries point at).
        fib = [
            [[fat_tree_host_address(p, e, h), 32], 2],
            [[0, 0], 1],
        ]
    else:
        raise ValueError(f"unknown fat-tree device name: {name}")
    desc: dict = {"fib": fib}
    acl = _sprinkle_acl(rng, acl_probability)
    if acl is not None:
        desc["acl_in"] = {"1": acl}
    return desc


def _fat_tree_links(k: int, hosts_per_edge: int) -> List[list]:
    half = k // 2
    links: List[list] = []
    for p in range(k):
        for e in range(half):
            for h in range(hosts_per_edge):
                links.append([f"host_{p}_{e}_{h}", 1, f"edge_{p}_{e}", h + 1])
            for a in range(half):
                links.append(
                    [f"edge_{p}_{e}", half + a + 1, f"agg_{p}_{a}", e + 1]
                )
        for a in range(half):
            for j in range(half):
                links.append(
                    [f"agg_{p}_{a}", half + j + 1, f"core{a * half + j}", p + 1]
                )
    return links


def fat_tree(
    k: int,
    seed: int = 0,
    hosts_per_edge: int = 1,
    acl_probability: float = 0.0,
) -> dict:
    """A full k-ary fat-tree fabric with attached hosts.

    ``(k/2)^2`` core switches, ``k`` pods of ``k/2`` aggregation and
    ``k/2`` edge switches, and ``hosts_per_edge`` hosts per edge switch
    (hosts are trivial single-route devices, so they scale the device
    count without dominating model size).  Forwarding is deterministic
    single-path: downward routes are exact, upward routes pick one
    uplink per device from the ``(seed, name)`` stream.
    """
    _check_fat_tree_args(k, hosts_per_edge)
    half = k // 2
    devices = {
        name: fat_tree_device(k, name, seed, hosts_per_edge, acl_probability)
        for name in fat_tree_device_names(k, hosts_per_edge)
    }
    groups = {"core": [f"core{c}" for c in range(half * half)]}
    for p in range(k):
        groups[f"pod{p}"] = [
            name
            for name in devices
            if name.startswith((f"agg_{p}_", f"edge_{p}_", f"host_{p}_"))
        ]
    return {
        "devices": devices,
        "links": _fat_tree_links(k, hosts_per_edge),
        "groups": groups,
    }


def fat_tree_reach_query(
    src_host: str, dst_host: str, mode: str = "reach"
) -> dict:
    """End-to-end delivery query between two fat-tree hosts.

    Packets are injected at the source host's local port and must be
    delivered out the destination host's local port (port 2) carrying
    the destination's address.
    """
    _, dp, de, dh = dst_host.split("_")
    address = fat_tree_host_address(int(dp), int(de), int(dh))
    return {
        "mode": mode,
        "source": [src_host, 2],
        "sink": [dst_host, 2],
        "headers": [{"dst_ip": [address, 0xFFFFFFFF]}],
        "target": None,
    }
