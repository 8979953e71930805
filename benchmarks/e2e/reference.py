"""Answers that do not come from the system under test.

Hand-written concrete interpreters for the three input kinds the
workloads use — first-match ACLs, vendor-style route maps and the
leaf-spine fabric — plus the loader and comparer for `expected.json`.
This module imports nothing from `repro`: it reads rule objects by
attribute (`rule.src.address`, `clause.set_local_pref`, …) and packets
by field, and recomputes masks, ranges and longest-prefix matches
itself, so a bug shared between the Zen models and the solver backends
cannot also hide here.  Every witness a workload accepts has to replay
through these functions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def in_prefix(ip: int, address: int, length: int) -> bool:
    """Whether `ip` lies in `address/length` (IPv4, 32 bits)."""
    if length == 0:
        return True
    shift = 32 - length
    return (ip >> shift) == (address >> shift)


# ----------------------------------------------------------------------
# ACLs
# ----------------------------------------------------------------------


def acl_rule_matches(rule: Any, header: Any) -> bool:
    if not in_prefix(header.src_ip, rule.src.address, rule.src.length):
        return False
    if not in_prefix(header.dst_ip, rule.dst.address, rule.dst.length):
        return False
    if rule.src_ports is not None and not (
        rule.src_ports[0] <= header.src_port <= rule.src_ports[1]
    ):
        return False
    if rule.dst_ports is not None and not (
        rule.dst_ports[0] <= header.dst_port <= rule.dst_ports[1]
    ):
        return False
    return rule.protocol is None or header.protocol == rule.protocol


def acl_first_match(rules: Sequence[Any], header: Any) -> int:
    """1-based number of the first line matching `header`, 0 if none."""
    for number, rule in enumerate(rules, start=1):
        if acl_rule_matches(rule, header):
            return number
    return 0


def acl_permits(rules: Sequence[Any], header: Any) -> bool:
    """First match wins; no match is an implicit deny."""
    line = acl_first_match(rules, header)
    return bool(line) and bool(rules[line - 1].action)


# ----------------------------------------------------------------------
# Route maps
# ----------------------------------------------------------------------


def _clause_matches(clause: Any, route: Any) -> bool:
    if clause.match_prefixes:
        hit = False
        for entry in clause.match_prefixes:
            low = max(entry.ge, entry.prefix.length)
            if (
                in_prefix(route.prefix, entry.prefix.address, entry.prefix.length)
                and low <= route.prefix_len <= entry.le
            ):
                hit = True
                break
        if not hit:
            return False
    if (
        clause.match_community is not None
        and clause.match_community not in route.communities
    ):
        return False
    if (
        clause.match_as_path_contains is not None
        and clause.match_as_path_contains not in route.as_path
    ):
        return False
    return True


def route_map_apply(clauses: Sequence[Any], route: Any) -> Optional[Dict[str, Any]]:
    """Process `route` through the map; None when denied.

    Returns the output route as a dict of its six fields.
    """
    for clause in clauses:
        if not _clause_matches(clause, route):
            continue
        if not clause.action:
            return None
        out = {
            "prefix": route.prefix,
            "prefix_len": route.prefix_len,
            "local_pref": route.local_pref,
            "med": route.med,
            "as_path": list(route.as_path),
            "communities": list(route.communities),
        }
        if clause.set_local_pref is not None:
            out["local_pref"] = clause.set_local_pref
        if clause.set_med is not None:
            out["med"] = clause.set_med
        if clause.add_community is not None:
            out["communities"].insert(0, clause.add_community)
        if clause.prepend_as is not None:
            out["as_path"].insert(0, clause.prepend_as)
        return out
    return None


def structural_property(clauses: Sequence[Any], route: Any) -> bool:
    """The Figure-10-right property, on the reference applier's output."""
    out = route_map_apply(clauses, route)
    return (
        out is not None
        and 0 in out["communities"]
        and out["local_pref"] >= 100
    )


# ----------------------------------------------------------------------
# Leaf-spine fabric (plain description from models.fabric_description)
# ----------------------------------------------------------------------


def _plain_acl_permits(rules: Optional[list], header: Any) -> bool:
    if rules is None:
        return True
    for permit, src, dst, dst_ports in rules:
        if not in_prefix(header.src_ip, src[0], src[1]):
            continue
        if not in_prefix(header.dst_ip, dst[0], dst[1]):
            continue
        if dst_ports is not None and not (
            dst_ports[0] <= header.dst_port <= dst_ports[1]
        ):
            continue
        return bool(permit)
    return False


def _longest_prefix_port(fib: list, dst_ip: int) -> int:
    best_port, best_len = 0, -1
    for (address, length), port in fib:
        if length > best_len and in_prefix(dst_ip, address, length):
            best_port, best_len = port, length
    return best_port


def trace_fabric(
    description: Dict[str, Any], packet: Any, max_depth: int
) -> Tuple[Tuple[str, ...], str]:
    """Forward one concrete packet; (path, outcome).

    The path is spelled the way header space analysis spells it —
    ``dev:port`` of each interface entered and left — and the outcome
    is ``"left"`` (out of an unlinked interface, or the depth bound was
    reached), ``"dropped_in"``, ``"dropped_out"`` or ``"no_route"``.
    Devices act on the underlay header when a packet has one.
    """
    links = {}
    for a, b in description["links"]:
        links[a] = b
        links[b] = a
    header = packet.underlay_header or packet.overlay_header
    device, port = description["entry"]
    path: List[str] = [f"{device}:{port}"]
    for depth in range(max_depth):
        policy = description["interfaces"][(device, port)]
        if not _plain_acl_permits(policy.get("acl_in"), header):
            return tuple(path), "dropped_in"
        out_port = _longest_prefix_port(
            description["devices"][device]["fib"], header.dst_ip
        )
        if out_port == 0 or (device, out_port) not in description["interfaces"]:
            return tuple(path), "no_route"
        out_policy = description["interfaces"][(device, out_port)]
        if not _plain_acl_permits(out_policy.get("acl_out"), header):
            return tuple(path), "dropped_out"
        path.append(f"{device}:{out_port}")
        neighbour = links.get((device, out_port))
        if neighbour is None or depth + 1 >= max_depth:
            return tuple(path), "left"
        device, port = neighbour
        path.append(f"{device}:{port}")
    return tuple(path), "left"


# ----------------------------------------------------------------------
# expected.json
# ----------------------------------------------------------------------


def load_expected(path: Optional[Path] = None) -> Dict[str, Any]:
    with open(path or EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def expected_for(expected: Dict[str, Any], seed: int, size: str) -> Dict[str, Any]:
    """Recorded verdicts for (seed, size), or {} when none were recorded."""
    if expected.get("seed") != seed:
        return {}
    return expected.get(size, {})
