"""Topology payloads: validation and the network they describe.

A compose topology is plain JSON so it can cross process boundaries
inside a :class:`~repro.service.QuerySpec` payload::

    {"devices": {name: {"fib": [[[addr, len], port], ...],
                        "acl_in": {"<port>": [rule, ...]},
                        "acl_out": {"<port>": [rule, ...]},
                        "nat": [rule, ...]}},          # optional
     "links": [[dev_a, port_a, dev_b, port_b], ...],
     "groups": {group_name: [device, ...]}}            # optional

and a query names two points and two cube covers
(:mod:`~repro.compose.cubes`; a missing cover is the universe)::

    {"mode": "reach" | "invariant", "source": [device, port],
     "sink": [device, port], "headers": cover, "target": cover}

Both dicts are closed: an unknown key is an error (a misspelt
``headers`` would otherwise inject every header, a misspelt ``links``
drop every link).  A device dict and every rule in it have the one
JSON form :mod:`repro.network.payload` states (closed dicts, ints
never bools, ``[lo, hi]`` port ranges with ``lo <= hi``, ACL port
keys in canonical decimal).  :func:`validate_topology` checks every
device where the payload enters, so a malformed one never reaches a
shard.

There is one device model: :func:`build_network` lifts the payload
into :mod:`repro.network` devices and interfaces.  The per-shard Zen
sets state a hop with the pieces of :mod:`repro.network.device`, and
the driver's witness replay walks the same models concretely with
:func:`~repro.network.simulate`.  A packet entering device ``d`` at
port ``p`` with header ``h``:

1. ``acl_in[p]`` filters ``h`` (absent ACL admits everything);
2. the device's NAT table rewrites ``h`` to ``h'``;
3. ``q = lpm(fib, h'.dst_ip)``; the null port 0 drops;
4. ``acl_out[q]`` filters ``h'``;
5. the packet exits at ``q``: a linked port hands it to the neighbour,
   the query's sink point delivers it, any other port drops it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence, Tuple

from ..network import NULL_PORT, Interface, Network
from ..network.payload import (
    acl_from_json,
    check_device,
    check_keys,
    fib_from_json,
    is_int,
    nat_from_json,
)
from .cubes import validate_cover

Point = Tuple[str, int]


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_port(value: Any, lowest: int = 0) -> bool:
    """A port the models can carry: ``forward`` returns ``Zen<byte>``
    with 0 as the null port; links and query points name real ports."""
    return is_int(value, 255, lowest)


def validate_topology(topo: Any) -> Dict[str, Any]:
    """Shape-check a topology payload; returns it for chaining."""
    check_keys(topo, ("devices", "links", "groups"), "topology", "topology")
    devices = topo.get("devices")
    _require(isinstance(devices, dict) and devices, "topology needs devices")
    for name, spec in devices.items():
        _require(
            isinstance(name, str) and name and ":" not in name and "|" not in name,
            f"device name {name!r} must be non-empty without ':' or '|'",
        )
        check_device(spec, f"devices[{name!r}]")
    links = topo.get("links", [])
    _require(isinstance(links, list), "links must be a list")
    seen_ends: Dict[Point, Any] = {}
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
    keys = ("mode", "source", "sink", "headers", "target")
    check_keys(query, keys, "query", "query")
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
# JSON -> network.Network
# ----------------------------------------------------------------------


def build_network(
    topo: Dict[str, Any], points: Iterable[Sequence[Any]] = ()
) -> Network:
    """The payload's devices and links as one :class:`Network`.

    `topo` is a validated topology payload or a shard task (both carry
    ``devices`` and ``links``).  Each device gets an interface for
    every port its FIB (bar the null port) or its ACLs name, every
    linked port, and every port of `points` (the query's source and
    sink, or a shard's entries and exits) on it.
    """
    named = {name: set() for name in topo["devices"]}
    links = topo.get("links", [])
    for dev_a, port_a, dev_b, port_b in links:
        named[dev_a].add(port_a)
        named[dev_b].add(port_b)
    for device, port in points:
        named[device].add(int(port))
    network = Network()
    interfaces: Dict[Point, Interface] = {}
    for name, spec in topo["devices"].items():
        device = network.add_device(name)
        device.fib = fib_from_json(spec.get("fib", []))
        if spec.get("nat"):
            device.nat = nat_from_json(spec["nat"], f"{name}:nat")
        acls = {
            (side, int(port)): rules
            for side in ("acl_in", "acl_out")
            for port, rules in spec.get(side, {}).items()
        }
        ports = named[name].union(port for _, port in acls)
        ports.update(r.port for r in device.fib.rules if r.port != NULL_PORT)
        for port in sorted(ports):
            interfaces[(name, port)] = network.add_interface(device, port)
        for (side, port), rules in acls.items():
            acl = acl_from_json(rules, f"{name}:{side}:{port}")
            setattr(interfaces[(name, port)], side, acl)
    for dev_a, port_a, dev_b, port_b in links:
        network.link(interfaces[(dev_a, port_a)], interfaces[(dev_b, port_b)])
    return network
