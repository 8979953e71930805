"""Independent reference interpreter for fuzz scenarios.

This module re-implements every scenario family's semantics in plain
Python, **directly from the JSON payload**, sharing no code with the
Zen models, the concrete evaluator, or the solver backends.  That
independence is what makes it an oracle: when the reference and the
model-under-test disagree on a concrete input, one of the two
derivations of the spec is wrong, and the farm has found a bug (in the
backends, in the models, or in this file — all three are findings).

Two entry points:

* :func:`reference_result` — the reference's verdict for one concrete
  input tuple;
* :func:`reference_inputs` — deterministic probe inputs for a
  scenario: targeted inputs aimed at each rule/clause/branch plus
  uniform random ones, all respecting the scenario's bounds
  (``max_list_length``, integer widths) so a probe can never "refute"
  a verdict that is correct under the bounded encoding.

Bug injection
-------------
``scenario["bug"]`` names an entry of :data:`KNOWN_BUGS` and plants
that defect *in this interpreter only*.  The farm must then flag the
reference/model divergence, shrink it, and replay it from the artifact
— the end-to-end canary proving the oracle loop actually fires.  The
bug name lives inside the scenario dict, so shrinking and artifact
round-trips preserve it with no extra plumbing.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..network.packet import Header, Packet
from ..network.routemap import Route

__all__ = [
    "KNOWN_BUGS",
    "SYSTEM_BUGS",
    "reference_inputs",
    "reference_result",
]

#: Injectable oracle defects (canaries). Values describe the planted bug.
KNOWN_BUGS = {
    "acl-last-match": (
        "ACL matching uses last-match-wins instead of first-match-wins"
    ),
    "fib-shortest-match": (
        "forwarding uses shortest- instead of longest-prefix match"
    ),
    "zen-sub-swapped": "subtraction computes right - left",
}

#: Injectable defects planted in the *system under test* instead of in
#: this interpreter (the reference stays correct for these, so any
#: divergence indicts the named subsystem).  Scenario validation
#: accepts them alongside :data:`KNOWN_BUGS`; each is interpreted by
#: the module it names.
SYSTEM_BUGS = {
    "compose-drop-assumption": (
        "the recomposer chains rewriting shards as if they were "
        "filters, forgetting the bits a flow's pins overwrite "
        "(interpreted by repro.compose.recompose)"
    ),
}

_IP_MASK = 0xFFFFFFFF


def _prefix_mask(length: int) -> int:
    return (_IP_MASK << (32 - length)) & _IP_MASK if length else 0


def _in_prefix(ip: int, prefix: Optional[Sequence[int]]) -> bool:
    """Whether ``ip`` lies in ``prefix``; a missing prefix (None) is the
    payload schema's wildcard and matches every address."""
    if prefix is None:
        return True
    mask = _prefix_mask(prefix[1])
    return (ip & mask) == (prefix[0] & mask)


# ----------------------------------------------------------------------
# ACL
# ----------------------------------------------------------------------


def _acl_rule_matches(rule: Dict[str, Any], h: Header) -> bool:
    if not _in_prefix(h.src_ip, rule.get("src")):
        return False
    if not _in_prefix(h.dst_ip, rule.get("dst")):
        return False
    ports = rule.get("src_ports")
    if ports is not None and not ports[0] <= h.src_port <= ports[1]:
        return False
    ports = rule.get("dst_ports")
    if ports is not None and not ports[0] <= h.dst_port <= ports[1]:
        return False
    proto = rule.get("protocol")
    if proto is not None and h.protocol != proto:
        return False
    return True


def _acl_match_line(
    rules: Sequence[Dict[str, Any]], h: Header, bug: Optional[str]
) -> int:
    """1-based first matching line, 0 when nothing matches."""
    if bug == "acl-last-match":
        for i in range(len(rules) - 1, -1, -1):
            if _acl_rule_matches(rules[i], h):
                return i + 1
        return 0
    for i, rule in enumerate(rules):
        if _acl_rule_matches(rule, h):
            return i + 1
    return 0


def _acl_allows(
    rules: Sequence[Dict[str, Any]], h: Header, bug: Optional[str]
) -> bool:
    line = _acl_match_line(rules, h, bug)
    return bool(rules[line - 1]["action"]) if line else False


# ----------------------------------------------------------------------
# NAT
# ----------------------------------------------------------------------


def _translate(prefix: Sequence[int], ip: int) -> int:
    mask = _prefix_mask(prefix[1])
    return (ip & (mask ^ _IP_MASK)) | (prefix[0] & mask)


def _apply_nat(rules: Sequence[Dict[str, Any]], h: Header) -> Header:
    for rule in rules:
        if _in_prefix(h.src_ip, rule.get("match_src")) and _in_prefix(
            h.dst_ip, rule.get("match_dst")
        ):
            src_ip, dst_ip = h.src_ip, h.dst_ip
            src_port, dst_port = h.src_port, h.dst_port
            if rule.get("translate_src") is not None:
                src_ip = _translate(rule["translate_src"], src_ip)
            if rule.get("translate_dst") is not None:
                dst_ip = _translate(rule["translate_dst"], dst_ip)
            if rule.get("set_src_port") is not None:
                src_port = rule["set_src_port"]
            if rule.get("set_dst_port") is not None:
                dst_port = rule["set_dst_port"]
            return Header(
                dst_ip=dst_ip,
                src_ip=src_ip,
                dst_port=dst_port,
                src_port=src_port,
                protocol=h.protocol,
            )
    return h


# ----------------------------------------------------------------------
# Route maps
# ----------------------------------------------------------------------


def _clause_matches(clause: Dict[str, Any], r: Route) -> bool:
    entries = clause.get("match_prefixes", [])
    if entries:
        if not any(
            _in_prefix(r.prefix, entry[0])
            and r.prefix_len >= max(entry[1], entry[0][1])
            and r.prefix_len <= entry[2]
            for entry in entries
        ):
            return False
    community = clause.get("match_community")
    if community is not None and community not in list(r.communities):
        return False
    asn = clause.get("match_as_path_contains")
    if asn is not None and asn not in list(r.as_path):
        return False
    return True


def _route_map_match_line(clauses: Sequence[Dict[str, Any]], r: Route) -> int:
    for i, clause in enumerate(clauses):
        if _clause_matches(clause, r):
            return i + 1
    return 0


def _apply_route_map(
    clauses: Sequence[Dict[str, Any]], r: Route
) -> Optional[Route]:
    line = _route_map_match_line(clauses, r)
    if line == 0:
        return None
    clause = clauses[line - 1]
    if not clause["action"]:
        return None
    local_pref = r.local_pref
    med = r.med
    communities = list(r.communities)
    as_path = list(r.as_path)
    if clause.get("set_local_pref") is not None:
        local_pref = clause["set_local_pref"]
    if clause.get("set_med") is not None:
        med = clause["set_med"]
    if clause.get("add_community") is not None:
        communities = [clause["add_community"]] + communities
    if clause.get("prepend_as") is not None:
        as_path = [clause["prepend_as"]] + as_path
    return Route(
        prefix=r.prefix,
        prefix_len=r.prefix_len,
        local_pref=local_pref,
        med=med,
        as_path=as_path,
        communities=communities,
    )


# ----------------------------------------------------------------------
# Forwarding paths
# ----------------------------------------------------------------------


def _sorted_fib(fib: Sequence[Sequence[Any]]) -> List[Sequence[Any]]:
    """Descending prefix length, stable — mirrors ``FwdTable.of``."""
    return sorted(fib, key=lambda rule: rule[0][1], reverse=True)


def _lpm_port(
    fib: Sequence[Sequence[Any]], dst_ip: int, bug: Optional[str]
) -> int:
    order = _sorted_fib(fib)
    if bug == "fib-shortest-match":
        order = list(reversed(order))
    for rule in order:
        if _in_prefix(dst_ip, rule[0]):
            return rule[1]
    return 0


def _forward_along_chain(
    devices: Sequence[Dict[str, Any]], pkt: Packet, bug: Optional[str]
) -> bool:
    """Whether the packet survives the implicit device chain.

    Mirrors ``forward_along_path`` over the in(1)/out(2) interface
    pairs scenario payloads describe: inbound ACL on the effective
    (underlay-preferring) header, decap, LPM + outbound ACL + encap,
    drop unless the forwarding decision picks the chain's out port.
    """
    overlay: Header = pkt.overlay_header
    underlay: Optional[Header] = pkt.underlay_header
    for desc in devices:
        intf_in = desc["interfaces"]["in"]
        intf_out = desc["interfaces"]["out"]
        # fwd_in: ACL on the effective header, then decap.
        header = underlay if underlay is not None else overlay
        acl = intf_in.get("acl_in")
        if acl is not None and not _acl_allows(acl, header, bug):
            return False
        if intf_in.get("gre_end") is not None:
            underlay = None
        # fwd_out: LPM and ACL on the (possibly decapped) effective
        # header, encap, and the port must equal the out interface id.
        header = underlay if underlay is not None else overlay
        port = _lpm_port(desc["fib"], header.dst_ip, bug)
        acl = intf_out.get("acl_out")
        if acl is not None and not _acl_allows(acl, header, bug):
            return False
        if port != 2:
            return False
        tunnel = intf_out.get("gre_start")
        if tunnel is not None:
            underlay = Header(
                dst_ip=tunnel[1],
                src_ip=tunnel[0],
                dst_port=overlay.dst_port,
                src_port=overlay.src_port,
                protocol=47,
            )
    return True


# ----------------------------------------------------------------------
# Compose topologies
# ----------------------------------------------------------------------

_COVER_WIDTHS = {
    "dst_ip": 32,
    "src_ip": 32,
    "dst_port": 16,
    "src_port": 16,
    "protocol": 8,
}


def _in_cover(cover: Optional[Sequence[Dict[str, Any]]], h: Header) -> bool:
    """Membership in a compose header cover (None = universe)."""
    if cover is None:
        return True
    for cube in cover:
        if all(
            (getattr(h, fld) & mask) == (value & mask)
            for fld, (value, mask) in cube.items()
        ):
            return True
    return False


def _walk_topology(
    topo: Dict[str, Any],
    query: Dict[str, Any],
    h: Header,
    bug: Optional[str],
) -> Optional[Header]:
    """Walk one header through the topology's hop pipeline.

    Returns the delivered header, or None when the packet drops or
    loops.  This mirrors the pipeline contract of
    :mod:`repro.compose.topo` from scratch — acl_in, NAT rewrite, LPM,
    acl_out, then linked ports hand off before the sink delivers —
    using only this module's own helpers.
    """
    links: Dict[Tuple[str, int], Tuple[str, int]] = {}
    for dev_a, port_a, dev_b, port_b in topo.get("links", []):
        links[(dev_a, int(port_a))] = (dev_b, int(port_b))
        links[(dev_b, int(port_b))] = (dev_a, int(port_a))
    sink = (query["sink"][0], int(query["sink"][1]))
    device, port = query["source"][0], int(query["source"][1])
    seen = set()
    for _ in range(4 * len(topo["devices"]) + 8):
        spec = topo["devices"][device]
        acl_in = {int(p): r for p, r in spec.get("acl_in", {}).items()}
        if acl_in.get(port) is not None and not _acl_allows(
            acl_in[port], h, bug
        ):
            return None
        h = _apply_nat(spec.get("nat") or [], h)
        out_port = _lpm_port(spec.get("fib", []), h.dst_ip, bug)
        if out_port == 0:
            return None
        acl_out = {int(p): r for p, r in spec.get("acl_out", {}).items()}
        if acl_out.get(out_port) is not None and not _acl_allows(
            acl_out[out_port], h, bug
        ):
            return None
        neighbour = links.get((device, out_port))
        if neighbour is not None:
            if (device, out_port, h) in seen:
                return None  # forwarding loop
            seen.add((device, out_port, h))
            device, port = neighbour
            continue
        return h if (device, out_port) == sink else None
    return None


# ----------------------------------------------------------------------
# Random Zen programs
# ----------------------------------------------------------------------


def _eval_int(
    node: Sequence[Any], env: Tuple[int, ...], width: int, bug: Optional[str]
) -> int:
    mask = (1 << width) - 1
    op = node[0]
    if op == "var":
        return env[node[1]]
    if op == "const":
        return node[1] & mask
    if op == "bnot":
        return ~_eval_int(node[1], env, width, bug) & mask
    if op == "neg":
        return -_eval_int(node[1], env, width, bug) & mask
    if op == "ite":
        if _eval_bool(node[1], env, width, bug):
            return _eval_int(node[2], env, width, bug)
        return _eval_int(node[3], env, width, bug)
    left = _eval_int(node[1], env, width, bug)
    right = _eval_int(node[2], env, width, bug)
    if op == "add":
        return (left + right) & mask
    if op == "sub":
        if bug == "zen-sub-swapped":
            return (right - left) & mask
        return (left - right) & mask
    if op == "mul":
        return (left * right) & mask
    if op == "band":
        return left & right
    if op == "bor":
        return left | right
    if op == "bxor":
        return left ^ right
    if op == "shl":
        return (left << right) & mask if right < width else 0
    # op == "shr"; unsigned, so shifting by >= width floors to 0.
    return left >> right if right < width else 0


def _eval_bool(
    node: Sequence[Any], env: Tuple[int, ...], width: int, bug: Optional[str]
) -> bool:
    op = node[0]
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "not":
        return not _eval_bool(node[1], env, width, bug)
    if op == "and":
        return _eval_bool(node[1], env, width, bug) and _eval_bool(
            node[2], env, width, bug
        )
    if op == "or":
        return _eval_bool(node[1], env, width, bug) or _eval_bool(
            node[2], env, width, bug
        )
    if op == "bif":
        if _eval_bool(node[1], env, width, bug):
            return _eval_bool(node[2], env, width, bug)
        return _eval_bool(node[3], env, width, bug)
    left = _eval_int(node[1], env, width, bug)
    right = _eval_int(node[2], env, width, bug)
    if op == "eq":
        return left == right
    if op == "ne":
        return left != right
    if op == "lt":
        return left < right
    if op == "le":
        return left <= right
    if op == "gt":
        return left > right
    return left >= right  # "ge"


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def reference_result(data: Dict[str, Any], inputs: Sequence[Any]) -> bool:
    """The reference verdict of the scenario model on concrete inputs.

    ``inputs`` is the argument tuple of the scenario's ZenFunction: a
    single Header / Route / Packet for the network kinds, a pair of
    ints for ``zen``.
    """
    kind = data["kind"]
    payload = data["payload"]
    bug = data.get("bug")
    if kind == "acl":
        line = _acl_match_line(payload["rules"], inputs[0], bug)
        return line == payload["target_line"]
    if kind == "nat":
        translated = _apply_nat(payload["rules"], inputs[0])
        return _acl_allows(payload["acl"], translated, bug)
    if kind == "routemap":
        route = inputs[0]
        line = _route_map_match_line(payload["clauses"], route)
        if line != payload["target_line"]:
            return False
        check = payload.get("check_local_pref")
        if check is None:
            return True
        outcome = _apply_route_map(payload["clauses"], route)
        return outcome is not None and outcome.local_pref == check
    if kind == "path":
        return _forward_along_chain(payload["devices"], inputs[0], bug)
    if kind == "topology":
        topo, query = payload["topo"], payload["query"]
        h = inputs[0]
        if not _in_cover(query.get("headers"), h):
            return False
        final = _walk_topology(topo, query, h, bug)
        return final is not None and _in_cover(query.get("target"), final)
    # kind == "zen"
    env = tuple(inputs)
    return _eval_bool(payload["ast"], env, payload["width"], bug)


def reference_inputs(
    data: Dict[str, Any], rng: random.Random, count: int = 12
) -> List[Tuple[Any, ...]]:
    """Deterministic probe inputs for a scenario.

    Half are *targeted* — aimed at individual rules, clauses, and FIB
    entries so at least some probes exercise the interesting branches
    of small-probability match conditions — and the rest uniform.  All
    stay inside the scenario's bounds (list lengths, widths), so a
    True reference verdict on a probe genuinely refutes an ``unsat``.
    """
    kind = data["kind"]
    payload = data["payload"]
    probes: List[Tuple[Any, ...]] = []
    for i in range(count):
        targeted = i < (count + 1) // 2
        if kind == "acl":
            probes.append((_probe_header(payload["rules"], rng, targeted),))
        elif kind == "nat":
            # Alternate between aiming at NAT match rules and at the
            # downstream ACL (reached through whatever NAT does).
            rules = payload["rules"] if i % 2 == 0 else payload["acl"]
            probes.append((_probe_header(rules, rng, targeted),))
        elif kind == "routemap":
            probes.append(
                (
                    _probe_route(
                        payload["clauses"],
                        rng,
                        targeted,
                        data["max_list_length"],
                    ),
                )
            )
        elif kind == "path":
            probes.append((_probe_packet(payload["devices"], rng, targeted),))
        elif kind == "topology":
            probes.append(
                (
                    _probe_topology_header(
                        payload["topo"],
                        payload["query"],
                        rng,
                        targeted,
                    ),
                )
            )
        else:  # zen
            width = payload["width"]
            pool = (0, 1, 2, (1 << width) - 1, 1 << (width - 1), width)
            if targeted:
                env = tuple(rng.choice(pool) for _ in range(2))
            else:
                env = tuple(rng.randrange(1 << width) for _ in range(2))
            probes.append(env)
    return probes


def _random_in_prefix(prefix: Sequence[int], rng: random.Random) -> int:
    mask = _prefix_mask(prefix[1])
    return (prefix[0] & mask) | (rng.getrandbits(32) & (mask ^ _IP_MASK))


def _probe_header(
    rules: Sequence[Dict[str, Any]], rng: random.Random, targeted: bool
) -> Header:
    """A header aimed at one rule (or uniform when not targeted).

    Works for both ACL rules and NAT rules: NAT rules have match_src /
    match_dst where ACL rules have src / dst, and no port intervals.
    """
    if not targeted or not rules:
        return Header(
            dst_ip=rng.getrandbits(32),
            src_ip=rng.getrandbits(32),
            dst_port=rng.getrandbits(16),
            src_port=rng.getrandbits(16),
            protocol=rng.getrandbits(8),
        )
    rule = rng.choice(list(rules))
    src = rule.get("src") or rule.get("match_src") or [0, 0]
    dst = rule.get("dst") or rule.get("match_dst") or [0, 0]
    src_ports = rule.get("src_ports")
    dst_ports = rule.get("dst_ports")
    proto = rule.get("protocol")
    return Header(
        dst_ip=_random_in_prefix(dst, rng),
        src_ip=_random_in_prefix(src, rng),
        dst_port=(
            rng.randint(*dst_ports) if dst_ports else rng.getrandbits(16)
        ),
        src_port=(
            rng.randint(*src_ports) if src_ports else rng.getrandbits(16)
        ),
        protocol=proto if proto is not None else rng.getrandbits(8),
    )


def _probe_topology_header(
    topo: Dict[str, Any],
    query: Dict[str, Any],
    rng: random.Random,
    targeted: bool,
) -> Header:
    """A header probe for a compose topology scenario.

    Targeted probes aim ``dst_ip`` at a random device's FIB prefixes so
    they actually route somewhere specific; all probes then conform to
    the query's header cover (when present) by overlaying the cubes'
    pinned bits, so True reference verdicts refute composed ``unsat``.
    """
    h = Header(
        dst_ip=rng.getrandbits(32),
        src_ip=rng.getrandbits(32),
        dst_port=rng.getrandbits(16),
        src_port=rng.getrandbits(16),
        protocol=rng.getrandbits(8),
    )
    if targeted:
        spec = topo["devices"][rng.choice(sorted(topo["devices"]))]
        prefixes = [entry[0] for entry in spec.get("fib", []) if entry[0][1]]
        if prefixes:
            h = dataclasses.replace(
                h, dst_ip=_random_in_prefix(rng.choice(prefixes), rng)
            )
    cover = query.get("headers")
    if cover:
        cube = rng.choice(list(cover))
        fields = dataclasses.asdict(h)
        for fld, (value, mask) in cube.items():
            width_mask = (1 << _COVER_WIDTHS[fld]) - 1
            fields[fld] = (fields[fld] & ~mask & width_mask) | (value & mask)
        h = Header(**fields)
    return h


def _probe_route(
    clauses: Sequence[Dict[str, Any]],
    rng: random.Random,
    targeted: bool,
    max_list_length: int,
) -> Route:
    communities = [
        rng.getrandbits(17) for _ in range(rng.randint(0, max_list_length))
    ]
    as_path = [
        rng.getrandbits(15) for _ in range(rng.randint(0, max_list_length))
    ]
    prefix = rng.getrandbits(32)
    prefix_len = rng.randint(0, 32)
    if targeted and clauses:
        clause = rng.choice(list(clauses))
        entries = clause.get("match_prefixes", [])
        if entries:
            entry = rng.choice(list(entries))
            prefix = _random_in_prefix(entry[0], rng)
            low = max(entry[1], entry[0][1])
            if low <= entry[2]:
                prefix_len = rng.randint(low, entry[2])
        if clause.get("match_community") is not None:
            communities = communities[: max_list_length - 1]
            communities.insert(
                rng.randint(0, len(communities)), clause["match_community"]
            )
        if clause.get("match_as_path_contains") is not None:
            as_path = as_path[: max_list_length - 1]
            as_path.insert(
                rng.randint(0, len(as_path)), clause["match_as_path_contains"]
            )
    return Route(
        prefix=prefix,
        prefix_len=prefix_len,
        local_pref=rng.randrange(1 << 10),
        med=rng.randrange(1 << 10),
        as_path=as_path,
        communities=communities,
    )


def _probe_packet(
    devices: Sequence[Dict[str, Any]], rng: random.Random, targeted: bool
) -> Packet:
    overlay = Header(
        dst_ip=rng.getrandbits(32),
        src_ip=rng.getrandbits(32),
        dst_port=rng.getrandbits(16),
        src_port=rng.getrandbits(16),
        protocol=rng.getrandbits(8),
    )
    underlay: Optional[Header] = None
    if targeted and devices:
        desc = rng.choice(list(devices))
        fib = desc["fib"]
        if fib:
            rule = rng.choice(list(fib))
            overlay = Header(
                dst_ip=_random_in_prefix(rule[0], rng),
                src_ip=overlay.src_ip,
                dst_port=overlay.dst_port,
                src_port=overlay.src_port,
                protocol=overlay.protocol,
            )
        # Sometimes arrive already encapsulated, aimed at a decap
        # interface's tunnel so the decap branch is exercised.
        tunnels = [
            spec.get(key)
            for dev in devices
            for spec in dev["interfaces"].values()
            for key in ("gre_start", "gre_end")
            if spec.get(key) is not None
        ]
        if tunnels and rng.random() < 0.5:
            tunnel = rng.choice(tunnels)
            underlay = Header(
                dst_ip=tunnel[1],
                src_ip=tunnel[0],
                dst_port=overlay.dst_port,
                src_port=overlay.src_port,
                protocol=47,
            )
    elif rng.random() < 0.2:
        underlay = Header(
            dst_ip=rng.getrandbits(32),
            src_ip=rng.getrandbits(32),
            dst_port=rng.getrandbits(16),
            src_port=rng.getrandbits(16),
            protocol=rng.getrandbits(8),
        )
    return Packet(overlay_header=overlay, underlay_header=underlay)
