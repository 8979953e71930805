"""Topology payloads: validation, model building, concrete simulation.

A compose topology is plain JSON so it can cross process boundaries
inside a :class:`~repro.service.QuerySpec` payload::

    {"devices": {name: {"fib": [[[addr, len], port], ...],
                        "acl_in": {"<port>": [rule, ...]},
                        "acl_out": {"<port>": [rule, ...]},
                        "nat": [rule, ...]}},          # optional
     "links": [[dev_a, port_a, dev_b, port_b], ...],
     "groups": {group_name: [device, ...]}}            # optional

ACL and NAT rules use the same JSON shape as the fuzz farm's scenario
codecs (the converters here are deliberately standalone so compose
never imports from :mod:`repro.fuzz` — the fuzz oracle imports compose,
not the other way round).

Every implementation of the hop semantics — the per-shard Zen model,
the monolithic product machine, and the concrete simulator below —
agrees on one pipeline for a packet entering device ``d`` at port
``p`` with header ``h``:

1. ``acl_in[p]`` filters ``h`` (absent ACL admits everything);
2. the device's NAT table rewrites ``h`` to ``h'``;
3. ``q = lpm(fib, h'.dst_ip)``; the null port 0 drops;
4. ``acl_out[q]`` filters ``h'``;
5. the packet exits at ``q``: a linked port hands it to the neighbour,
   the query's sink point delivers it, any other port drops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..network import (
    Acl,
    AclRule,
    FwdRule,
    FwdTable,
    NatRule,
    NatTable,
    Prefix,
)
from .cubes import validate_cover

Point = Tuple[str, int]

MAX_MONOLITH_DEVICES = 254  # device index must fit a Byte with sentinel


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_port(value: Any, lowest: int = 0) -> bool:
    """A port number the models can carry: a ``Byte``, never a bool.

    ``forward`` returns ``Zen<byte>`` with 0 as the null port; links
    and query points name real ports (`lowest` 1).
    """
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and lowest <= value <= 255
    )


def validate_topology(topo: Any) -> Dict[str, Any]:
    """Shape-check a topology payload; returns it for chaining."""
    _require(isinstance(topo, dict), "topology must be a dict")
    devices = topo.get("devices")
    _require(isinstance(devices, dict) and devices, "topology needs devices")
    for name, spec in devices.items():
        _require(
            isinstance(name, str) and name and ":" not in name and "|" not in name,
            f"device name {name!r} must be non-empty without ':' or '|'",
        )
        _require(isinstance(spec, dict), f"device {name!r} must be a dict")
        fib = spec.get("fib", [])
        _require(isinstance(fib, list), f"device {name!r} fib must be a list")
        for entry in fib:
            _require(
                isinstance(entry, (list, tuple))
                and len(entry) == 2,
                f"device {name!r} fib entries must be [[addr, len], port]",
            )
            _require(
                _is_port(entry[1]),
                f"device {name!r} fib port {entry[1]!r} must be an int in "
                "0..255 (0 is the null port)",
            )
        for side in ("acl_in", "acl_out"):
            acls = spec.get(side, {})
            _require(
                isinstance(acls, dict),
                f"device {name!r} {side} must map port -> rules",
            )
            for port, rules in acls.items():
                _require(
                    str(port).isdigit() and isinstance(rules, list),
                    f"device {name!r} {side}[{port!r}] malformed",
                )
                _require(
                    _is_port(int(port)),
                    f"device {name!r} {side} port {port!r} must be in 0..255",
                )
        nat = spec.get("nat")
        _require(
            nat is None or isinstance(nat, list),
            f"device {name!r} nat must be a rule list",
        )
    links = topo.get("links", [])
    _require(isinstance(links, list), "links must be a list")
    seen_ends: Dict[Point, List[Any]] = {}
    for link in links:
        _require(
            isinstance(link, (list, tuple)) and len(link) == 4,
            "links must be [dev_a, port_a, dev_b, port_b]",
        )
        dev_a, port_a, dev_b, port_b = link
        for dev, port in ((dev_a, port_a), (dev_b, port_b)):
            _require(dev in devices, f"link references unknown device {dev!r}")
            _require(
                _is_port(port, lowest=1),
                f"link port {port!r} on {dev!r} must be an int in 1..255",
            )
            _require(
                (dev, port) not in seen_ends,
                f"port {port} on {dev!r} appears in two links",
            )
            seen_ends[(dev, port)] = link
    groups = topo.get("groups", {})
    _require(isinstance(groups, dict), "groups must be a dict")
    for gname, members in groups.items():
        _require(
            isinstance(members, list)
            and all(m in devices for m in members),
            f"group {gname!r} lists unknown devices",
        )
    return topo


def validate_query(topo: Dict[str, Any], query: Any) -> Dict[str, Any]:
    """Shape-check a query payload against its topology."""
    _require(isinstance(query, dict), "query must be a dict")
    mode = query.get("mode", "reach")
    _require(mode in ("reach", "invariant"), f"unknown query mode {mode!r}")
    devices = topo["devices"]
    for key in ("source", "sink"):
        point = query.get(key)
        _require(
            isinstance(point, (list, tuple))
            and len(point) == 2
            and point[0] in devices
            and _is_port(point[1], lowest=1),
            f"query {key} must be [known_device, port in 1..255]",
        )
    validate_cover(query.get("headers"), "query headers")
    validate_cover(query.get("target"), "query target")
    return query


# ----------------------------------------------------------------------
# JSON -> network models (standalone; keep fuzz out of the import graph)
# ----------------------------------------------------------------------


def _prefix(data: Sequence[int]) -> Prefix:
    return Prefix(int(data[0]), int(data[1]))


def _ports(data: Optional[Sequence[int]]) -> Optional[Tuple[int, int]]:
    return None if data is None else (int(data[0]), int(data[1]))


def acl_from_json(rules: Sequence[Dict[str, Any]], name: str) -> Acl:
    return Acl.of(
        name,
        [
            AclRule(
                action=bool(rule["action"]),
                src=_prefix(rule.get("src", [0, 0])),
                dst=_prefix(rule.get("dst", [0, 0])),
                src_ports=_ports(rule.get("src_ports")),
                dst_ports=_ports(rule.get("dst_ports")),
                protocol=rule.get("protocol"),
            )
            for rule in rules
        ],
    )


def nat_from_json(rules: Sequence[Dict[str, Any]], name: str) -> NatTable:
    return NatTable.of(
        name,
        [
            NatRule(
                match_src=_prefix(rule.get("match_src", [0, 0])),
                match_dst=_prefix(rule.get("match_dst", [0, 0])),
                translate_src=(
                    None
                    if rule.get("translate_src") is None
                    else _prefix(rule["translate_src"])
                ),
                translate_dst=(
                    None
                    if rule.get("translate_dst") is None
                    else _prefix(rule["translate_dst"])
                ),
                set_src_port=rule.get("set_src_port"),
                set_dst_port=rule.get("set_dst_port"),
            )
            for rule in rules
        ],
    )


def fib_from_json(entries: Sequence[Sequence[Any]]) -> FwdTable:
    return FwdTable.of(
        [FwdRule(prefix=_prefix(pfx), port=int(port)) for pfx, port in entries]
    )


@dataclass(frozen=True)
class DeviceModel:
    """A device's JSON spec lifted into the network model types."""

    name: str
    fib: FwdTable
    acl_in: Dict[int, Acl] = field(default_factory=dict)
    acl_out: Dict[int, Acl] = field(default_factory=dict)
    nat: Optional[NatTable] = None


def device_model(name: str, spec: Dict[str, Any]) -> DeviceModel:
    return DeviceModel(
        name=name,
        fib=fib_from_json(spec.get("fib", [])),
        acl_in={
            int(port): acl_from_json(rules, f"{name}:in:{port}")
            for port, rules in spec.get("acl_in", {}).items()
        },
        acl_out={
            int(port): acl_from_json(rules, f"{name}:out:{port}")
            for port, rules in spec.get("acl_out", {}).items()
        },
        nat=(
            None
            if not spec.get("nat")
            else nat_from_json(spec["nat"], f"{name}:nat")
        ),
    )


def device_models(topo: Dict[str, Any]) -> Dict[str, DeviceModel]:
    return {
        name: device_model(name, spec)
        for name, spec in topo["devices"].items()
    }


def link_map(topo: Dict[str, Any]) -> Dict[Point, Point]:
    """Bidirectional (device, port) -> (device, port) adjacency."""
    links: Dict[Point, Point] = {}
    for dev_a, port_a, dev_b, port_b in topo.get("links", []):
        links[(dev_a, int(port_a))] = (dev_b, int(port_b))
        links[(dev_b, int(port_b))] = (dev_a, int(port_a))
    return links


def has_nat(topo: Dict[str, Any]) -> bool:
    """Whether any device rewrites headers (affects compose exactness)."""
    return any(spec.get("nat") for spec in topo["devices"].values())


# ----------------------------------------------------------------------
# Concrete simulation (plain Python; the witness-replay ground truth)
# ----------------------------------------------------------------------


def _prefix_matches(pfx: Sequence[int], value: int, width: int = 32) -> bool:
    address, length = int(pfx[0]), int(pfx[1])
    mask = ((1 << length) - 1) << (width - length) if length else 0
    return (value & mask) == (address & mask)


def _acl_rule_matches(rule: Dict[str, Any], h: Dict[str, int]) -> bool:
    if not _prefix_matches(rule.get("src", [0, 0]), h["src_ip"]):
        return False
    if not _prefix_matches(rule.get("dst", [0, 0]), h["dst_ip"]):
        return False
    for key, fld in (("src_ports", "src_port"), ("dst_ports", "dst_port")):
        ports = rule.get(key)
        if ports is not None and not ports[0] <= h[fld] <= ports[1]:
            return False
    protocol = rule.get("protocol")
    if protocol is not None and h["protocol"] != protocol:
        return False
    return True


def acl_allows_concrete(
    rules: Optional[Sequence[Dict[str, Any]]], h: Dict[str, int]
) -> bool:
    if rules is None:
        return True  # no ACL on this port
    for rule in rules:
        if _acl_rule_matches(rule, h):
            return bool(rule["action"])
    return False  # implicit deny


def _translate(pfx: Sequence[int], value: int) -> int:
    address, length = int(pfx[0]), int(pfx[1])
    mask = ((1 << length) - 1) << (32 - length) if length else 0
    return (value & (mask ^ 0xFFFFFFFF)) | (address & mask)


def apply_nat_concrete(
    rules: Optional[Sequence[Dict[str, Any]]], h: Dict[str, int]
) -> Dict[str, int]:
    if not rules:
        return h
    for rule in rules:
        if _prefix_matches(
            rule.get("match_src", [0, 0]), h["src_ip"]
        ) and _prefix_matches(rule.get("match_dst", [0, 0]), h["dst_ip"]):
            out = dict(h)
            if rule.get("translate_src") is not None:
                out["src_ip"] = _translate(rule["translate_src"], h["src_ip"])
            if rule.get("translate_dst") is not None:
                out["dst_ip"] = _translate(rule["translate_dst"], h["dst_ip"])
            if rule.get("set_src_port") is not None:
                out["src_port"] = int(rule["set_src_port"])
            if rule.get("set_dst_port") is not None:
                out["dst_port"] = int(rule["set_dst_port"])
            return out
    return h


def lpm_concrete(fib: Sequence[Sequence[Any]], dst_ip: int) -> int:
    best_port, best_len = 0, -1
    for pfx, port in fib:
        if _prefix_matches(pfx, dst_ip) and int(pfx[1]) > best_len:
            best_port, best_len = int(port), int(pfx[1])
    return best_port


def simulate(
    topo: Dict[str, Any],
    query: Dict[str, Any],
    header: Dict[str, int],
    max_hops: Optional[int] = None,
) -> Dict[str, Any]:
    """Trace one concrete header through the topology.

    Returns ``{"outcome", "delivered", "path", "header"}`` where
    outcome is one of ``delivered``, ``filtered_in``, ``filtered_out``,
    ``no_route``, ``exited``, or ``looped``; path lists the
    ``[device, in_port]`` hops taken and header is the final
    (possibly NAT-rewritten) five-tuple.
    """
    devices = topo["devices"]
    links = link_map(topo)
    sink = tuple(query["sink"])
    device, port = query["source"]
    h = dict(header)
    path: List[List[Any]] = []
    seen = set()
    limit = max_hops if max_hops is not None else 4 * len(devices) + 8

    def result(outcome: str) -> Dict[str, Any]:
        return {
            "outcome": outcome,
            "delivered": outcome == "delivered",
            "path": path,
            "header": h,
        }

    for _ in range(limit):
        state = (device, port, tuple(sorted(h.items())))
        if state in seen:
            return result("looped")
        seen.add(state)
        path.append([device, port])
        spec = devices[device]
        if not acl_allows_concrete(spec.get("acl_in", {}).get(str(port)), h):
            return result("filtered_in")
        h = apply_nat_concrete(spec.get("nat"), h)
        out_port = lpm_concrete(spec.get("fib", []), h["dst_ip"])
        if out_port == 0:
            return result("no_route")
        if not acl_allows_concrete(
            spec.get("acl_out", {}).get(str(out_port)), h
        ):
            return result("filtered_out")
        neighbour = links.get((device, out_port))
        if neighbour is not None:
            device, port = neighbour
            continue
        if (device, out_port) == sink:
            return result("delivered")
        return result("exited")
    return result("looped")
