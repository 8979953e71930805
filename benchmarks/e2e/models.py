"""Seeded inputs and Zen model builders for the end-to-end benchmark.

Everything a workload hands to the system under test is made here from
``(seed, scope)`` alone, so any process — the lap interpreter or a
service worker resolving a ``"benchmarks.e2e.models:…"`` reference —
rebuilds the same input bit for bit.  Boolean-valued models fold the
property into the function, so ``find()`` needs no predicate and the
stepwise traced run is the same computation.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict, List, Tuple

from repro import ZenFunction
from repro.lang.listops import contains
from repro.network import (
    Acl,
    AclRule,
    FwdRule,
    FwdTable,
    Header,
    Network,
    Prefix,
    PrefixRange,
    RouteMap,
    RouteMapClause,
    acl_allows,
    acl_match_line,
    apply_route_map,
)
from repro.workloads import random_acl
from repro.workloads.generators import (
    fat_tree_host_address,
    fat_tree_reach_query,
    random_header,
    random_prefix,
)

#: Lines of the ACLs the ``service_stream`` models are built from.
STREAM_ACL_LINES = 10


def rng_for(seed: int, *scope: Any) -> random.Random:
    """A platform-stable stream for one named input of one seed."""
    return random.Random("e2e:" + ":".join(str(part) for part in (seed, *scope)))


# ----------------------------------------------------------------------
# Figure 10 left: ACL, first match is the last line
# ----------------------------------------------------------------------


def last_line_model(acl: Acl):
    """`h -> first matching line of acl is its last line` (Zen<bool>)."""
    last = len(acl.rules)
    return lambda h: acl_match_line(acl, h) == last


# ----------------------------------------------------------------------
# Figure 10 right: route map, structural query on the processed output
# ----------------------------------------------------------------------


def structural_model(route_map):
    """`r -> output carries community 0 and local-pref >= 100`."""

    def model(r):
        out = apply_route_map(route_map, r)
        return (
            out.has_value()
            & contains(out.value().communities, 0)
            & (out.value().local_pref >= 100)
        )

    return model


# ----------------------------------------------------------------------
# ACL equivalence: a random ACL against a semantics-preserving refactor
# ----------------------------------------------------------------------


def refactor_acl(acl: Acl, rng: random.Random) -> Acl:
    """Rewrite `acl` line by line without changing what it permits.

    A line's source prefix is split into its two halves, its
    destination port range into two adjacent ranges, and the resulting
    pieces — disjoint, same action, adjacent in the list — are
    shuffled among themselves.  Equality with the original therefore
    holds by construction.
    """
    out: List[AclRule] = []
    for rule in acl.rules:
        pieces = [rule]
        if rule.src.length < 32:
            length = rule.src.length + 1
            halves = (
                Prefix(rule.src.address, length),
                Prefix(rule.src.address | (1 << (32 - length)), length),
            )
            pieces = [replace(p, src=half) for p in pieces for half in halves]
        ports = rule.dst_ports
        if ports is not None and ports[0] < ports[1]:
            mid = (ports[0] + ports[1]) // 2
            ranges = ((ports[0], mid), (mid + 1, ports[1]))
            pieces = [replace(p, dst_ports=r) for p in pieces for r in ranges]
        rng.shuffle(pieces)
        out.extend(pieces)
    return Acl.of(acl.name + "-refactored", out)


def rule_sample(rule: AclRule) -> Header:
    """One header inside `rule`'s match region (its lowest corner)."""
    return Header(
        dst_ip=rule.dst.address,
        src_ip=rule.src.address,
        dst_port=rule.dst_ports[0] if rule.dst_ports else 0,
        src_port=rule.src_ports[0] if rule.src_ports else 0,
        protocol=rule.protocol if rule.protocol is not None else 0,
    )


def flip_line(acl: Acl, index: int) -> Acl:
    """`acl` with the action of line `index` (0-based) inverted."""
    rules = list(acl.rules)
    rules[index] = replace(rules[index], action=not rules[index].action)
    return Acl.of(acl.name + "-flipped", rules)


def difference_model(a: Acl, b: Acl):
    """`h -> a and b disagree on h` (UNSAT means the ACLs are equal)."""
    return lambda h: acl_allows(a, h) != acl_allows(b, h)


# ----------------------------------------------------------------------
# Figure 8: leaf-spine fabric for header space analysis
# ----------------------------------------------------------------------


def fabric_description(seed: int, index: int) -> Dict[str, Any]:
    """Plain-data leaf-spine fabric (the examples/hsa_reachability shape).

    Two leaves with one host subnet each, reached through one spine;
    default routes leave the fabric.  The seed picks the subnets, the
    denied service port on leaf2's host port and one random inbound
    filter line on leaf1's.  The description is plain data so that
    `reference.trace_fabric` can forward packets without the system
    under test.
    """
    rng = rng_for(seed, "fabric", index)
    site = rng.randint(1, 200)
    a, b = rng.sample(range(1, 250), 2)
    net_a = ((10 << 24) | (site << 16) | (a << 8), 24)
    net_b = ((10 << 24) | (site << 16) | (b << 8), 24)
    default = (0, 0)
    blocked_port = rng.choice((22, 23, 25, 80, 443, 8080))
    noisy = (rng.getrandbits(32) & 0xFFFF0000, 16)
    return {
        "devices": {
            "leaf1": {"fib": [(net_a, 1), (net_b, 2), (default, 3)]},
            "leaf2": {"fib": [(net_b, 1), (net_a, 2), (default, 3)]},
            "spine1": {"fib": [(net_a, 1), (net_b, 2)]},
        },
        # (device, port) -> {"acl_in": rules, "acl_out": rules}; a rule
        # is (permit, src (addr, len), dst (addr, len), dst port range).
        "interfaces": {
            ("leaf1", 1): {
                "acl_in": [
                    (False, noisy, default, None),
                    (True, default, default, None),
                ]
            },
            ("leaf1", 2): {},
            ("leaf1", 3): {},
            ("leaf2", 1): {
                "acl_out": [
                    (False, default, default, (blocked_port, blocked_port)),
                    (True, default, default, None),
                ]
            },
            ("leaf2", 2): {},
            ("leaf2", 3): {},
            ("spine1", 1): {},
            ("spine1", 2): {},
        },
        "links": [
            (("leaf1", 2), ("spine1", 1)),
            (("spine1", 2), ("leaf2", 2)),
        ],
        "entry": ("leaf1", 1),
        "subnets": [net_a, net_b],
        "blocked_port": blocked_port,
        "noisy_source": noisy,
    }


def _acl_from_description(name: str, rules) -> Acl:
    return Acl.of(
        name,
        [
            AclRule(
                action=permit,
                src=Prefix(*src),
                dst=Prefix(*dst),
                dst_ports=dst_ports,
            )
            for permit, src, dst, dst_ports in rules
        ],
    )


def build_fabric(description: Dict[str, Any]):
    """The `Network` and entry interface for a fabric description."""
    net = Network()
    devices = {}
    for name, spec in description["devices"].items():
        # add_device parses dotted strings; the description holds ints.
        device = net.add_device(name)
        device.fib = FwdTable.of(
            [FwdRule(Prefix(*pfx), port) for pfx, port in spec["fib"]]
        )
        devices[name] = device
    interfaces = {}
    for (name, port), policy in description["interfaces"].items():
        interfaces[(name, port)] = net.add_interface(
            devices[name],
            port,
            acl_in=(
                _acl_from_description(f"{name}:{port}:in", policy["acl_in"])
                if "acl_in" in policy
                else None
            ),
            acl_out=(
                _acl_from_description(f"{name}:{port}:out", policy["acl_out"])
                if "acl_out" in policy
                else None
            ),
        )
    for a, b in description["links"]:
        net.link(interfaces[a], interfaces[b])
    return net, interfaces[description["entry"]]


def fabric_probe_headers(description: Dict[str, Any], seed: int, count: int):
    """Seeded probe five-tuples that exercise every branch of a fabric.

    Uniform headers almost never hit a /24, the denied port or the
    filtered source, so the shape follows fixed cycles and only the
    values are drawn: destinations go subnet, subnet, anywhere (the
    default route); every fourth probe names the denied port and every
    fifth the filtered source.  Eight probes already take every
    forwarded path of the fabric at least once.
    """
    rng = rng_for(seed, "probes", description["subnets"][0][0])
    probes = []
    for i in range(count):
        aimed = {}
        if i % 3 < 2:
            base, _ = description["subnets"][i % 3]
            aimed["dst_ip"] = base | rng.getrandbits(8)
        if i % 4 == 3:
            aimed["dst_port"] = description["blocked_port"]
        if i % 5 == 4:
            aimed["src_ip"] = description["noisy_source"][0] | rng.getrandbits(16)
        probes.append(replace(random_header(rng), **aimed))
    return probes


# ----------------------------------------------------------------------
# Figure 3 at scale: fat-tree host-pair queries for the compose driver
# ----------------------------------------------------------------------


def host_address(host: str) -> int:
    """The 10.pod.edge.host+2 address of a ``host_p_e_h`` device name."""
    _, pod, edge, index = host.split("_")
    return fat_tree_host_address(int(pod), int(edge), int(index))


def fat_tree_queries(
    hosts: List[str], seed: int, scope: Any, count: int
) -> List[Tuple[Dict[str, Any], bool]]:
    """`count` cross-pod host-pair queries, four deliverable for every one not.

    Every query injects at a source host and asks for delivery out of a
    sink host's local port (`fat_tree_reach_query`).  A deliverable
    query's header names the sink; an undeliverable one names a third
    host, which the sink's exact /32 route can never deliver locally.
    Source, sink and third host sit in three different pods, so every
    query crosses the core.  Returns (query, deliverable) pairs — the
    verdict is known by construction.
    """
    rng = rng_for(seed, "fattree", scope)
    by_pod: Dict[str, List[str]] = {}
    for host in hosts:
        by_pod.setdefault(host.split("_")[1], []).append(host)
    queries = []
    for i in range(count):
        src, sink, other = (
            rng.choice(by_pod[pod]) for pod in rng.sample(sorted(by_pod), 3)
        )
        deliverable = i % 5 != 2
        query = fat_tree_reach_query(src, sink)
        if not deliverable:
            query["headers"] = [{"dst_ip": [host_address(other), 0xFFFFFFFF]}]
        queries.append((query, deliverable))
    return queries


# ----------------------------------------------------------------------
# service_stream: small ACL models resolved inside the workers
# ----------------------------------------------------------------------


def stream_acl(seed: int, index: int) -> Acl:
    """The `index`-th ACL of a seed's service_stream working set."""
    return random_acl(STREAM_ACL_LINES, rng=rng_for(seed, "stream-acl", index))


def stream_acl_model(seed: int, index: int) -> ZenFunction:
    """Worker-side builder: `h -> the ACL permits h` (a ZenFunction)."""
    acl = stream_acl(seed, index)
    return ZenFunction(
        lambda h: acl_allows(acl, h), [Header], name=f"stream-acl-{index}"
    )


STREAM_MODEL_REF = "benchmarks.e2e.models:stream_acl_model"


# ----------------------------------------------------------------------
# Seeded ACLs and route maps for the find() rows
# ----------------------------------------------------------------------
#
# `acl_bdd` uses the paper's generator (`random_acl`): its cost varies by
# 3 % between seeds.  The same cannot be said of `random_route_map` and
# of CDCL proofs over `random_acl` — which clauses get a community match
# or which lines get a port range is a lottery that moves the cost of one
# input by a third, and a benchmark would read that as noise.  So those
# rows draw every *value* from the seed but fix the *shape*: which fields
# a line or clause carries follows a fixed cycle.


def figure10_acl(seed: int, lap: int, index: int, lines: int) -> Acl:
    return random_acl(lines, rng=rng_for(seed, "acl", lap, index))


def shaped_route_map(seed: int, lap: int, index: int, clauses: int) -> RouteMap:
    """A route map of fixed shape with seeded values, plus a final permit.

    Like `random_route_map`, every clause but the last matches one prefix
    range of length 8..24, so no clause matches a prefix length below 8.
    """
    rng = rng_for(seed, "routemap", lap, index)
    out = []
    for i in range(clauses - 1):
        prefix = random_prefix(rng, min_len=8, max_len=24)
        ge = rng.randint(prefix.length, 32)
        le = rng.randint(ge, 32)
        out.append(
            RouteMapClause(
                action=i % 2 == 0,
                match_prefixes=(PrefixRange(prefix, ge=ge, le=le),),
                match_community=rng.randint(1, 1 << 16) if i % 3 == 0 else None,
                set_local_pref=rng.randint(0, 400) if i % 2 == 1 else None,
                set_med=rng.randint(0, 100) if i % 3 == 1 else None,
                add_community=rng.randint(1, 1 << 16) if i % 3 == 2 else None,
            )
        )
    out.append(RouteMapClause(action=True))
    return RouteMap.of(f"shaped-{seed}-{lap}-{index}", out)


_SHAPED_PREFIX_LENGTHS = (8, 12, 16, 20, 24, 28)


def shaped_acl(lines: int, rng: random.Random) -> Acl:
    """An ACL of fixed shape with seeded values, plus a final permit."""
    rules = []
    for i in range(lines - 1):
        low = rng.randint(0, 60000)
        rules.append(
            AclRule(
                action=i % 2 == 0,
                src=Prefix(rng.getrandbits(32), _SHAPED_PREFIX_LENGTHS[i % 6]),
                dst=Prefix(
                    rng.getrandbits(32), _SHAPED_PREFIX_LENGTHS[(i * 5 + 3) % 6]
                ),
                dst_ports=(low, low + rng.randint(1, 5000)) if i % 2 == 0 else None,
                protocol=(None, 6, 17)[i % 3],
            )
        )
    rules.append(AclRule(action=True))
    return Acl.of("shaped", rules)


def equivalence_pair(seed: int, lap: int, index: int, lines: int):
    """(original, semantics-preserving rewrite) for `acl_equiv_sat`."""
    rng = rng_for(seed, "equiv", lap, index)
    original = shaped_acl(lines, rng)
    return original, refactor_acl(original, rng)
