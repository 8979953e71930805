"""The JSON form of every network rule, stated once.

Fuzz scenarios and compose topologies describe devices as plain JSON
so they can cross process boundaries and live in repro artifacts.
This module is the one place that knows what that JSON looks like.
Each shape below has ``check(data, where)``, which validates a payload
fragment, ``encode(obj)``, which turns a model object into JSON, and
``decode(data)``, which turns checked JSON back into the object:

* ``PREFIX``: ``[addr, len]``, a :class:`~repro.network.ip.Prefix`;
* ``PORT_RANGE``: ``[lo, hi]``, an ``(lo, hi)`` tuple;
* ``FIB_ENTRY``: ``[[addr, len], port]``, a ``FwdRule``;
* ``GRE_ENDPOINT``: ``[src_ip, dst_ip]``, a ``GreTunnel``;
* ``PREFIX_LIST``: ``[[[addr, len], ge, le], ...]``, a tuple of
  ``PrefixRange``;
* ``ACL_RULE``, ``NAT_RULE``, ``CLAUSE``: a dict keyed by the fields
  of ``AclRule``, ``NatRule`` or ``RouteMapClause``, each value in the
  JSON form of that field's shape.

What a check accepts:

* an int is never a bool, and lies in the range its Zen field carries
  (addresses 0..2**32-1, prefix lengths 0..32, L4 ports 0..65535,
  protocols and device ports 0..255);
* a port range is ``[lo, hi]`` with ``lo <= hi``;
* a rule dict is closed: an unknown key is an error, never ignored
  (a misspelt ``dst`` would otherwise match every address);
* a missing or null optional field keeps its wildcard meaning, the
  model class's default: a match prefix matches every address, a port
  range or protocol matches anything, a rewrite leaves its field
  alone.  ``action`` is the one required rule field.

A failed check raises ``ValueError`` naming the path of the bad field,
e.g. ``devices['d0'].acl_in['1'][0].protocol``.  Two containers sit on
top: :func:`check_device` for a compose device dict, and
:func:`check_interface` / :func:`interface_from_json` for an interface
of a fuzz path scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Collection, Dict, Sequence, Tuple, Union

from .acl import Acl, AclRule
from .device import Device, Interface
from .fib import FwdRule, FwdTable
from .gre import GreTunnel
from .ip import MAX_IP, Prefix
from .nat import NatRule, NatTable
from .routemap import PrefixRange, RouteMapClause

MAX_L4_PORT = 0xFFFF


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def is_int(value: Any, highest: int, lowest: int = 0) -> bool:
    """An int in ``[lowest, highest]``, never a bool."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and lowest <= value <= highest
    )


def _is_pair(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2


def _is_prefix(value: Any) -> bool:
    return (
        _is_pair(value) and is_int(value[0], MAX_IP) and is_int(value[1], 32)
    )


def _is_port_range(value: Any) -> bool:
    return (
        _is_pair(value)
        and is_int(value[0], MAX_L4_PORT)
        and is_int(value[1], MAX_L4_PORT)
        and value[0] <= value[1]
    )


def _is_prefix_range(value: Any) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == 3
        and _is_prefix(value[0])
        and is_int(value[1], 32)
        and is_int(value[2], 32)
        and value[1] <= value[2]
    )


@dataclass(frozen=True)
class Shape:
    """A JSON value: what it must look like, and its codec."""

    noun: str
    text: str  #: what a valid value looks like, for error messages
    ok: Callable[[Any], bool]
    encode: Callable[[Any], Any] = lambda value: value
    decode: Callable[[Any], Any] = lambda value: value

    def check(self, data: Any, where: str, noun: str = "") -> None:
        _require(
            self.ok(data),
            f"{where}: {noun or self.noun} must be {self.text}, not {data!r}",
        )


def _int_shape(highest: int) -> Shape:
    ok = partial(is_int, highest=highest)
    return Shape("int", f"an int in 0..{highest}", ok)


FLAG = Shape("flag", "a bool", lambda value: isinstance(value, bool))
UINT = _int_shape(MAX_IP)
USHORT = _int_shape(MAX_L4_PORT)

PREFIX = Shape(
    "prefix",
    "[addr, len] with addr in 0..2**32-1 and len in 0..32",
    _is_prefix,
    lambda prefix: [prefix.address, prefix.length],
    lambda data: Prefix(data[0], data[1]),
)
PORT_RANGE = Shape(
    "port range",
    "[lo, hi] with 0 <= lo <= hi <= 65535",
    _is_port_range,
    list,
    tuple,
)
FIB_ENTRY = Shape(
    "fib entry",
    "[[addr, len], port] with len in 0..32 and port in 0..255 "
    "(0 is the null port)",
    lambda value: (
        _is_pair(value) and _is_prefix(value[0]) and is_int(value[1], 255)
    ),
    lambda rule: [PREFIX.encode(rule.prefix), rule.port],
    lambda data: FwdRule(PREFIX.decode(data[0]), data[1]),
)
GRE_ENDPOINT = Shape(
    "GRE endpoint",
    "[src_ip, dst_ip] with each in 0..2**32-1",
    lambda value: _is_pair(value) and all(is_int(ip, MAX_IP) for ip in value),
    lambda tunnel: [tunnel.src_ip, tunnel.dst_ip],
    lambda data: GreTunnel(data[0], data[1]),
)
PREFIX_LIST = Shape(
    "prefix list",
    "a list of [[addr, len], ge, le] with 0 <= ge <= le <= 32",
    lambda value: (
        isinstance(value, list) and all(map(_is_prefix_range, value))
    ),
    lambda entries: [[PREFIX.encode(e.prefix), e.ge, e.le] for e in entries],
    lambda data: tuple(
        PrefixRange(PREFIX.decode(entry[0]), ge=entry[1], le=entry[2])
        for entry in data
    ),
)


def check_keys(
    data: Any, keys: Collection[str], where: str, noun: str
) -> None:
    """`data` is a dict whose keys all come from `keys`."""
    _require(
        isinstance(data, dict), f"{where}: {noun} must be a dict, not {data!r}"
    )
    for key in data:
        _require(key in keys, f"{where}: unknown {noun} key {key!r}")


@dataclass(frozen=True)
class Record:
    """A closed JSON dict holding the fields of one model class."""

    noun: str
    model: type
    fields: Dict[str, Shape]
    required: Tuple[str, ...] = ()

    def check(self, data: Any, where: str) -> None:
        check_keys(data, self.fields, where, self.noun)
        for key, shape in self.fields.items():
            if data.get(key) is not None:
                shape.check(data[key], f"{where}.{key}", f"{self.noun} {key}")
            else:
                _require(
                    key not in self.required,
                    f"{where}: {self.noun} needs {key!r}",
                )

    def encode(self, obj: Any) -> Dict[str, Any]:
        return {
            key: None if value is None else shape.encode(value)
            for key, shape in self.fields.items()
            for value in (getattr(obj, key),)
        }

    def decode(self, data: Dict[str, Any]) -> Any:
        return self.model(
            **{
                key: shape.decode(data[key])
                for key, shape in self.fields.items()
                if data.get(key) is not None
            }
        )


ACL_RULE = Record(
    "ACL rule",
    AclRule,
    {
        "action": FLAG,
        "src": PREFIX,
        "dst": PREFIX,
        "src_ports": PORT_RANGE,
        "dst_ports": PORT_RANGE,
        "protocol": _int_shape(255),
    },
    required=("action",),
)
NAT_RULE = Record(
    "NAT rule",
    NatRule,
    {
        "match_src": PREFIX,
        "match_dst": PREFIX,
        "translate_src": PREFIX,
        "translate_dst": PREFIX,
        "set_src_port": USHORT,
        "set_dst_port": USHORT,
    },
)
CLAUSE = Record(
    "route-map clause",
    RouteMapClause,
    {
        "action": FLAG,
        "match_prefixes": PREFIX_LIST,
        "match_community": UINT,
        "match_as_path_contains": USHORT,
        "set_local_pref": UINT,
        "set_med": UINT,
        "add_community": UINT,
        "prepend_as": USHORT,
    },
    required=("action",),
)


def check_list(shape: Union[Shape, Record], data: Any, where: str) -> None:
    """`data` is a list whose every element passes ``shape.check``."""
    _require(isinstance(data, list), f"{where}: must be a list, not {data!r}")
    for i, item in enumerate(data):
        shape.check(item, f"{where}[{i}]")


def acl_from_json(rules: Sequence[Dict[str, Any]], name: str) -> Acl:
    """An ACL from a checked list of :data:`ACL_RULE` dicts; a missing
    or null match field matches anything."""
    return Acl.of(name, [ACL_RULE.decode(rule) for rule in rules])


def nat_from_json(rules: Sequence[Dict[str, Any]], name: str) -> NatTable:
    """A NAT table from a checked list of :data:`NAT_RULE` dicts; a
    missing or null match prefix matches every address, a missing or
    null rewrite leaves its field alone."""
    return NatTable.of(name, [NAT_RULE.decode(rule) for rule in rules])


def fib_from_json(entries: Sequence[Sequence[Any]]) -> FwdTable:
    """A forwarding table from a checked list of :data:`FIB_ENTRY`."""
    return FwdTable.of([FIB_ENTRY.decode(entry) for entry in entries])


# ----------------------------------------------------------------------
# Containers
# ----------------------------------------------------------------------


def check_device(spec: Any, where: str) -> None:
    """A compose device: ``{"fib": [entry, ...], "acl_in": {"<port>":
    [rule, ...]}, "acl_out": {...}, "nat": [rule, ...]}``.

    A missing ``fib``, ``acl_in`` or ``acl_out`` means no routes or no
    ACLs; ``nat`` may also be null.  An ACL port key is written in
    canonical decimal, so two keys never name one port.
    """
    check_keys(spec, ("fib", "acl_in", "acl_out", "nat"), where, "device")
    check_list(FIB_ENTRY, spec.get("fib", []), f"{where}.fib")
    for side in ("acl_in", "acl_out"):
        acls = spec.get(side, {})
        _require(
            isinstance(acls, dict),
            f"{where}.{side}: must map port -> rules, not {acls!r}",
        )
        for port, rules in acls.items():
            _require(
                isinstance(port, str)
                and port.isdecimal()
                and str(int(port)) == port
                and int(port) <= 255,
                f"{where}.{side}: port key {port!r} must be a port in "
                "0..255 written in canonical decimal",
            )
            check_list(ACL_RULE, rules, f"{where}.{side}[{port!r}]")
    if spec.get("nat") is not None:
        check_list(NAT_RULE, spec["nat"], f"{where}.nat")


def check_interface(spec: Any, where: str) -> None:
    """A path interface: ``{"acl_in": [rule, ...], "acl_out",
    "gre_start": [src_ip, dst_ip], "gre_end"}``; a missing or null
    key means no ACL or no tunnel."""
    keys = ("acl_in", "acl_out", "gre_start", "gre_end")
    check_keys(spec, keys, where, "interface")
    for key in ("acl_in", "acl_out"):
        if spec.get(key) is not None:
            check_list(ACL_RULE, spec[key], f"{where}.{key}")
    for key in ("gre_start", "gre_end"):
        if spec.get(key) is not None:
            GRE_ENDPOINT.check(spec[key], f"{where}.{key}")


def interface_from_json(
    spec: Dict[str, Any], intf_id: int, device: Device, name: str
) -> Interface:
    """The interface a checked spec describes; its ACLs are named
    ``<name>-in`` and ``<name>-out``."""
    acls = {
        key: acl_from_json(spec[key], f"{name}-{suffix}")
        for key, suffix in (("acl_in", "in"), ("acl_out", "out"))
        if spec.get(key) is not None
    }
    tunnels = {
        key: GRE_ENDPOINT.decode(spec[key])
        for key in ("gre_start", "gre_end")
        if spec.get(key) is not None
    }
    return Interface(id=intf_id, device=device, **acls, **tunnels)
