"""Scenario grammar and seeded generation for the differential fuzz farm.

A *scenario* is a fully JSON-serializable description of one random
verification problem: a network-function composition (ACL, route map,
NAT + ACL, a multi-device tunnel path, a sharded compose topology) or
a random Zen program, plus the query to ask of it.  Scenarios are the unit the farm generates,
cross-checks, shrinks, and files in repro artifacts, so everything
about them is plain data:

* :class:`ScenarioGenerator` derives every scenario deterministically
  from ``(seed, index)`` — same pair, same scenario, on any platform
  and in any process (string seeding of ``random.Random`` hashes with
  SHA-512, independent of ``PYTHONHASHSEED``);
* :func:`build_scenario_model` rebuilds the boolean-valued
  :class:`~repro.core.function.ZenFunction` from the JSON payload.  It
  is a module-level callable so a
  :class:`~repro.service.spec.QuerySpec` can reference it as
  ``"repro.fuzz.scenario:build_scenario_model"`` with the payload as a
  (picklable) builder argument and any subprocess worker can rebuild
  the exact model;
* :func:`validate_scenario` rejects malformed payloads, which lets the
  shrinker propose aggressive edits and cheaply discard the nonsense
  ones.

Every model is boolean-valued, so ``find`` needs no predicate and
``verify`` uses the single generic invariant :func:`prop_never`
("the model never returns True"), whose counterexample is exactly a
``find`` witness.  SAT and BDD must agree on satisfiability, any
witness must replay concretely, and the independent reference
interpreter (:mod:`repro.fuzz.reference`) must concur — that triple
agreement is the farm's oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.function import ZenFunction
from ..lang import Byte, UShort, Zen, constant, if_
from ..network.acl import AclRule, acl_allows, acl_from_json, acl_match_line
from ..network.device import Device, Interface, forward_along_path
from ..network.fib import FwdRule, FwdTable
from ..network.gre import GreTunnel
from ..network.ip import Prefix
from ..network.nat import NatRule, apply_nat, nat_from_json
from ..network.packet import Header, Packet
from ..network.routemap import (
    PrefixRange,
    Route,
    RouteMap,
    RouteMapClause,
    apply_route_map,
    route_map_match_line,
)
from ..workloads.generators import (
    random_acl_rule,
    random_nat_rule,
    random_port_range,
    random_prefix,
)

__all__ = [
    "SCENARIO_KINDS",
    "SCENARIO_VERSION",
    "ScenarioGenerator",
    "build_scenario_model",
    "prop_never",
    "scenario_label",
    "scenario_rng",
    "validate_scenario",
]

SCENARIO_VERSION = 1

#: Scenario families the generator can emit.
SCENARIO_KINDS = ("acl", "routemap", "nat", "path", "zen", "topology")

#: Integer operators of the random-Zen-program grammar.
_INT_BINOPS = ("add", "sub", "mul", "band", "bor", "bxor", "shl", "shr")
_CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")
_BOOL_BINOPS = ("and", "or")


def scenario_rng(seed: int, index: int) -> random.Random:
    """The deterministic random stream of scenario ``(seed, index)``."""
    return random.Random(f"repro-fuzz:{seed}:{index}")


def scenario_label(data: Dict[str, Any]) -> str:
    """A short human identifier, echoed through specs and artifacts."""
    return f"fuzz-{data.get('kind')}-s{data.get('seed')}-i{data.get('index')}"


def prop_never(*args: Zen) -> Zen:
    """The generic ``verify`` invariant: the model never returns True.

    The last argument is the model's (boolean) result, so a
    counterexample to this invariant is exactly a ``find`` witness —
    which keeps find- and verify-flavoured scenarios comparable under
    the same oracle.
    """
    return ~args[-1]


# ----------------------------------------------------------------------
# JSON encoding of model fragments
# ----------------------------------------------------------------------


def _prefix_to_json(prefix: Prefix) -> List[int]:
    return [prefix.address, prefix.length]


def _ports_to_json(ports: Optional[Tuple[int, int]]) -> Optional[List[int]]:
    return None if ports is None else [ports[0], ports[1]]


def _acl_rule_to_json(rule: AclRule) -> Dict[str, Any]:
    return {
        "action": rule.action,
        "src": _prefix_to_json(rule.src),
        "dst": _prefix_to_json(rule.dst),
        "src_ports": _ports_to_json(rule.src_ports),
        "dst_ports": _ports_to_json(rule.dst_ports),
        "protocol": rule.protocol,
    }


def _nat_rule_to_json(rule: NatRule) -> Dict[str, Any]:
    return {
        "match_src": _prefix_to_json(rule.match_src),
        "match_dst": _prefix_to_json(rule.match_dst),
        "translate_src": (
            None
            if rule.translate_src is None
            else _prefix_to_json(rule.translate_src)
        ),
        "translate_dst": (
            None
            if rule.translate_dst is None
            else _prefix_to_json(rule.translate_dst)
        ),
        "set_src_port": rule.set_src_port,
        "set_dst_port": rule.set_dst_port,
    }


def _clause_to_json(clause: RouteMapClause) -> Dict[str, Any]:
    return {
        "action": clause.action,
        "match_prefixes": [
            [_prefix_to_json(entry.prefix), entry.ge, entry.le]
            for entry in clause.match_prefixes
        ],
        "match_community": clause.match_community,
        "match_as_path_contains": clause.match_as_path_contains,
        "set_local_pref": clause.set_local_pref,
        "set_med": clause.set_med,
        "add_community": clause.add_community,
        "prepend_as": clause.prepend_as,
    }


def _clause_from_json(data: Dict[str, Any]) -> RouteMapClause:
    return RouteMapClause(
        action=bool(data["action"]),
        match_prefixes=tuple(
            PrefixRange(Prefix(*entry[0]), ge=entry[1], le=entry[2])
            for entry in data.get("match_prefixes", [])
        ),
        match_community=data.get("match_community"),
        match_as_path_contains=data.get("match_as_path_contains"),
        set_local_pref=data.get("set_local_pref"),
        set_med=data.get("set_med"),
        add_community=data.get("add_community"),
        prepend_as=data.get("prepend_as"),
    )


# ----------------------------------------------------------------------
# Model builders (the QuerySpec builder target)
# ----------------------------------------------------------------------


def build_scenario_model(data: Dict[str, Any]) -> ZenFunction:
    """Rebuild the boolean Zen model a scenario payload describes.

    This is the fuzz farm's ``QuerySpec`` builder: the payload dict is
    picklable and JSON-serializable, so the same scenario can cross a
    worker pipe, live in a repro artifact, and be rebuilt bit-for-bit
    in any process.
    """
    validate_scenario(data)
    kind = data["kind"]
    payload = data["payload"]
    name = scenario_label(data)
    if kind == "acl":
        acl = acl_from_json(payload["rules"], name)
        target = payload["target_line"]

        def acl_model(h: Zen) -> Zen:
            return acl_match_line(acl, h) == target

        return ZenFunction(acl_model, [Header], name=name)
    if kind == "nat":
        table = nat_from_json(payload["rules"], name)
        acl = acl_from_json(payload["acl"], f"{name}-acl")

        def nat_model(h: Zen) -> Zen:
            return acl_allows(acl, apply_nat(table, h))

        return ZenFunction(nat_model, [Header], name=name)
    if kind == "routemap":
        route_map = RouteMap.of(
            name, [_clause_from_json(c) for c in payload["clauses"]]
        )
        target = payload["target_line"]
        check_local_pref = payload.get("check_local_pref")

        def route_model(r: Zen) -> Zen:
            matched = route_map_match_line(route_map, r) == target
            if check_local_pref is None:
                return matched
            result = apply_route_map(route_map, r)
            return (
                matched
                & result.has_value()
                & (result.value().local_pref == check_local_pref)
            )

        return ZenFunction(route_model, [Route], name=name)
    if kind == "path":
        path = _build_path(payload)

        def path_model(p: Zen) -> Zen:
            return forward_along_path(path, p).has_value()

        return ZenFunction(path_model, [Packet], name=name)
    if kind == "topology":
        raise ValueError(
            "topology scenarios have no boolean model: compose decides "
            "them (see repro.fuzz.oracle._check_topology)"
        )
    # kind == "zen"
    width = payload["width"]
    int_type = Byte if width == 8 else UShort
    ast = payload["ast"]

    def zen_model(x: Zen, y: Zen) -> Zen:
        return _build_bool(ast, (x, y), int_type)

    return ZenFunction(zen_model, [int_type, int_type], name=name)


def _build_path(payload: Dict[str, Any]) -> List[Interface]:
    """Materialize the device chain: in/out interface per device.

    The chain is implicit: each device has interface 1 (inbound) and
    interface 2 (outbound), the packet traverses devices in order, so
    the Figure-7 path is ``[d0:1, d0:2, d1:1, d1:2, ...]``.
    """
    path: List[Interface] = []
    for position, desc in enumerate(payload["devices"]):
        fib = FwdTable.of(
            [
                FwdRule(Prefix(*rule[0]), int(rule[1]))
                for rule in desc["fib"]
            ]
        )
        device = Device(name=f"d{position}", fib=fib)
        for intf_id, role in ((1, "in"), (2, "out")):
            spec = desc["interfaces"][role]
            acl_in = spec.get("acl_in")
            acl_out = spec.get("acl_out")
            tunnel_start = spec.get("gre_start")
            tunnel_end = spec.get("gre_end")
            intf = Interface(
                id=intf_id,
                device=device,
                acl_in=(
                    None
                    if acl_in is None
                    else acl_from_json(acl_in, f"d{position}:{intf_id}-in")
                ),
                acl_out=(
                    None
                    if acl_out is None
                    else acl_from_json(acl_out, f"d{position}:{intf_id}-out")
                ),
                gre_start=(
                    None
                    if tunnel_start is None
                    else GreTunnel(int(tunnel_start[0]), int(tunnel_start[1]))
                ),
                gre_end=(
                    None
                    if tunnel_end is None
                    else GreTunnel(int(tunnel_end[0]), int(tunnel_end[1]))
                ),
            )
            device.interfaces.append(intf)
            path.append(intf)
    return path


def _build_int(node: Sequence[Any], args: Tuple[Zen, ...], int_type: Any) -> Zen:
    op = node[0]
    if op == "var":
        return args[node[1]]
    if op == "const":
        return constant(node[1], int_type)
    if op == "bnot":
        return ~_build_int(node[1], args, int_type)
    if op == "neg":
        return -_build_int(node[1], args, int_type)
    if op == "ite":
        return if_(
            _build_bool(node[1], args, int_type),
            _build_int(node[2], args, int_type),
            _build_int(node[3], args, int_type),
        )
    left = _build_int(node[1], args, int_type)
    right = _build_int(node[2], args, int_type)
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    if op == "band":
        return left & right
    if op == "bor":
        return left | right
    if op == "bxor":
        return left ^ right
    if op == "shl":
        return left << right
    # validate_scenario guarantees op == "shr" here
    return left >> right


def _build_bool(node: Sequence[Any], args: Tuple[Zen, ...], int_type: Any) -> Zen:
    op = node[0]
    if op == "true":
        return constant(True, bool)
    if op == "false":
        return constant(False, bool)
    if op == "not":
        return ~_build_bool(node[1], args, int_type)
    if op == "bif":
        return if_(
            _build_bool(node[1], args, int_type),
            _build_bool(node[2], args, int_type),
            _build_bool(node[3], args, int_type),
        )
    if op in _BOOL_BINOPS:
        left = _build_bool(node[1], args, int_type)
        right = _build_bool(node[2], args, int_type)
        return left & right if op == "and" else left | right
    # comparison over integer subexpressions
    left = _build_int(node[1], args, int_type)
    right = _build_int(node[2], args, int_type)
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
    # validate_scenario guarantees op == "ge" here
    return left >= right


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid scenario: {message}")


def _validate_prefix(data: Any, where: str) -> None:
    _require(
        isinstance(data, (list, tuple)) and len(data) == 2,
        f"{where}: prefix must be [address, length]",
    )
    _require(
        isinstance(data[0], int) and 0 <= data[0] <= 0xFFFFFFFF,
        f"{where}: prefix address out of range",
    )
    _require(
        isinstance(data[1], int) and 0 <= data[1] <= 32,
        f"{where}: prefix length out of range",
    )


def _validate_ports(data: Any, where: str) -> None:
    if data is None:
        return
    _require(
        isinstance(data, (list, tuple))
        and len(data) == 2
        and all(isinstance(p, int) and 0 <= p <= 0xFFFF for p in data)
        and data[0] <= data[1],
        f"{where}: malformed port range",
    )


def _validate_acl_rules(rules: Any, where: str) -> None:
    _require(isinstance(rules, list) and rules, f"{where}: needs >= 1 rule")
    for i, rule in enumerate(rules):
        _require(isinstance(rule, dict), f"{where}[{i}]: rule must be a dict")
        _require(
            isinstance(rule.get("action"), bool), f"{where}[{i}]: bool action"
        )
        _validate_prefix(rule.get("src"), f"{where}[{i}].src")
        _validate_prefix(rule.get("dst"), f"{where}[{i}].dst")
        _validate_ports(rule.get("src_ports"), f"{where}[{i}].src_ports")
        _validate_ports(rule.get("dst_ports"), f"{where}[{i}].dst_ports")
        proto = rule.get("protocol")
        _require(
            proto is None or (isinstance(proto, int) and 0 <= proto <= 255),
            f"{where}[{i}].protocol out of range",
        )


def _validate_int_ast(node: Any, num_vars: int, width: int, depth: int) -> None:
    _require(depth < 32, "zen ast too deep")
    _require(
        isinstance(node, (list, tuple)) and node and isinstance(node[0], str),
        "zen ast node must be [op, ...]",
    )
    op = node[0]
    if op == "var":
        _require(
            len(node) == 2
            and isinstance(node[1], int)
            and 0 <= node[1] < num_vars,
            "zen var index out of range",
        )
        return
    if op == "const":
        _require(
            len(node) == 2
            and isinstance(node[1], int)
            and 0 <= node[1] < (1 << width),
            "zen const out of range",
        )
        return
    if op in ("bnot", "neg"):
        _require(len(node) == 2, f"{op} takes one operand")
        _validate_int_ast(node[1], num_vars, width, depth + 1)
        return
    if op == "ite":
        _require(len(node) == 4, "ite takes cond/then/else")
        _validate_bool_ast(node[1], num_vars, width, depth + 1)
        _validate_int_ast(node[2], num_vars, width, depth + 1)
        _validate_int_ast(node[3], num_vars, width, depth + 1)
        return
    _require(op in _INT_BINOPS, f"unknown int op {op!r}")
    _require(len(node) == 3, f"{op} takes two operands")
    _validate_int_ast(node[1], num_vars, width, depth + 1)
    _validate_int_ast(node[2], num_vars, width, depth + 1)


def _validate_bool_ast(node: Any, num_vars: int, width: int, depth: int) -> None:
    _require(depth < 32, "zen ast too deep")
    _require(
        isinstance(node, (list, tuple)) and node and isinstance(node[0], str),
        "zen ast node must be [op, ...]",
    )
    op = node[0]
    if op in ("true", "false"):
        _require(len(node) == 1, f"{op} takes no operands")
        return
    if op == "not":
        _require(len(node) == 2, "not takes one operand")
        _validate_bool_ast(node[1], num_vars, width, depth + 1)
        return
    if op == "bif":
        _require(len(node) == 4, "bif takes cond/then/else")
        for child in node[1:]:
            _validate_bool_ast(child, num_vars, width, depth + 1)
        return
    if op in _BOOL_BINOPS:
        _require(len(node) == 3, f"{op} takes two operands")
        _validate_bool_ast(node[1], num_vars, width, depth + 1)
        _validate_bool_ast(node[2], num_vars, width, depth + 1)
        return
    _require(op in _CMP_OPS, f"unknown bool op {op!r}")
    _require(len(node) == 3, f"{op} takes two operands")
    _validate_int_ast(node[1], num_vars, width, depth + 1)
    _validate_int_ast(node[2], num_vars, width, depth + 1)


def validate_scenario(data: Any) -> Dict[str, Any]:
    """Check a scenario payload's shape; raises ValueError when broken.

    The shrinker leans on this: it proposes aggressive structural
    edits and discards any candidate that no longer validates, so the
    builder can assume a well-formed payload.
    """
    _require(isinstance(data, dict), "scenario must be a dict")
    _require(data.get("version") == SCENARIO_VERSION, "unknown version")
    kind = data.get("kind")
    _require(kind in SCENARIO_KINDS, f"unknown kind {kind!r}")
    _require(data.get("query") in ("find", "verify"), "bad query kind")
    _require(
        isinstance(data.get("max_list_length"), int)
        and 1 <= data["max_list_length"] <= 8,
        "bad max_list_length",
    )
    # Unknown bug names would silently behave as "no bug" in the
    # reference interpreter; reject them instead.
    from .reference import KNOWN_BUGS, SYSTEM_BUGS

    bug = data.get("bug")
    _require(
        bug is None or bug in KNOWN_BUGS or bug in SYSTEM_BUGS,
        f"unknown bug {bug!r}",
    )
    payload = data.get("payload")
    _require(isinstance(payload, dict), "payload must be a dict")
    if kind == "acl":
        _validate_acl_rules(payload.get("rules"), "acl.rules")
        target = payload.get("target_line")
        _require(
            isinstance(target, int) and 0 <= target <= len(payload["rules"]),
            "acl.target_line out of range",
        )
    elif kind == "nat":
        rules = payload.get("rules")
        _require(isinstance(rules, list), "nat.rules must be a list")
        for i, rule in enumerate(rules):
            _require(isinstance(rule, dict), f"nat.rules[{i}] must be a dict")
            _validate_prefix(rule.get("match_src"), f"nat.rules[{i}].match_src")
            _validate_prefix(rule.get("match_dst"), f"nat.rules[{i}].match_dst")
            for key in ("translate_src", "translate_dst"):
                if rule.get(key) is not None:
                    _validate_prefix(rule[key], f"nat.rules[{i}].{key}")
            for key in ("set_src_port", "set_dst_port"):
                port = rule.get(key)
                _require(
                    port is None
                    or (isinstance(port, int) and 0 <= port <= 0xFFFF),
                    f"nat.rules[{i}].{key} out of range",
                )
        _validate_acl_rules(payload.get("acl"), "nat.acl")
    elif kind == "routemap":
        clauses = payload.get("clauses")
        _require(isinstance(clauses, list) and clauses, "routemap needs clauses")
        for i, clause in enumerate(clauses):
            _require(isinstance(clause, dict), f"clauses[{i}] must be a dict")
            _require(
                isinstance(clause.get("action"), bool),
                f"clauses[{i}]: bool action",
            )
            for j, entry in enumerate(clause.get("match_prefixes", [])):
                _require(
                    isinstance(entry, (list, tuple)) and len(entry) == 3,
                    f"clauses[{i}].match_prefixes[{j}] malformed",
                )
                _validate_prefix(entry[0], f"clauses[{i}].match_prefixes[{j}]")
                _require(
                    isinstance(entry[1], int)
                    and isinstance(entry[2], int)
                    and 0 <= entry[1] <= entry[2] <= 32,
                    f"clauses[{i}].match_prefixes[{j}]: bad ge/le",
                )
        target = payload.get("target_line")
        _require(
            isinstance(target, int) and 0 <= target <= len(clauses),
            "routemap.target_line out of range",
        )
        check = payload.get("check_local_pref")
        _require(
            check is None or (isinstance(check, int) and check >= 0),
            "routemap.check_local_pref out of range",
        )
    elif kind == "path":
        devices = payload.get("devices")
        _require(isinstance(devices, list) and devices, "path needs devices")
        for i, desc in enumerate(devices):
            _require(isinstance(desc, dict), f"devices[{i}] must be a dict")
            fib = desc.get("fib")
            _require(isinstance(fib, list), f"devices[{i}].fib must be a list")
            for j, rule in enumerate(fib):
                _require(
                    isinstance(rule, (list, tuple)) and len(rule) == 2,
                    f"devices[{i}].fib[{j}] must be [prefix, port]",
                )
                _validate_prefix(rule[0], f"devices[{i}].fib[{j}]")
                _require(
                    isinstance(rule[1], int) and 0 <= rule[1] <= 255,
                    f"devices[{i}].fib[{j}] port out of range",
                )
            intfs = desc.get("interfaces")
            _require(
                isinstance(intfs, dict)
                and set(intfs) == {"in", "out"},
                f"devices[{i}].interfaces needs in/out",
            )
            for role, spec in intfs.items():
                where = f"devices[{i}].{role}"
                _require(isinstance(spec, dict), f"{where} must be a dict")
                for key in ("acl_in", "acl_out"):
                    if spec.get(key) is not None:
                        _validate_acl_rules(spec[key], f"{where}.{key}")
                for key in ("gre_start", "gre_end"):
                    tunnel = spec.get(key)
                    if tunnel is None:
                        continue
                    _require(
                        isinstance(tunnel, (list, tuple))
                        and len(tunnel) == 2
                        and all(
                            isinstance(ip, int) and 0 <= ip <= 0xFFFFFFFF
                            for ip in tunnel
                        ),
                        f"{where}.{key} malformed",
                    )
    elif kind == "topology":
        topo = payload.get("topo")
        query = payload.get("query")
        _require(isinstance(topo, dict), "topology needs a topo dict")
        _require(isinstance(query, dict), "topology needs a query dict")
        # Compose owns the payload schema; its validators raise the
        # same ValueError contract the shrinker relies on.
        from ..compose.topo import validate_query, validate_topology

        validate_topology(topo)
        validate_query(topo, query)
        _require(
            len(topo["devices"]) <= 8,
            "topology scenarios stay small (<= 8 devices)",
        )
    else:  # kind == "zen"
        width = payload.get("width")
        _require(width in (8, 16), "zen.width must be 8 or 16")
        _validate_int_vars = payload.get("vars")
        _require(
            isinstance(_validate_int_vars, int) and 1 <= _validate_int_vars <= 2,
            "zen.vars must be 1 or 2",
        )
        _validate_bool_ast(payload.get("ast"), _validate_int_vars, width, 0)
    return data


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorLimits:
    """Size knobs of the scenario grammar (kept small: the farm's
    power comes from volume and diversity, not from individual giant
    instances — and small scenarios shrink fast)."""

    max_acl_rules: int = 8
    max_nat_rules: int = 4
    max_clauses: int = 5
    max_devices: int = 4
    max_fib_rules: int = 4
    max_ast_depth: int = 4
    max_list_length: int = 2


class ScenarioGenerator:
    """Deterministic scenario stream: ``(seed, index) -> scenario``.

    ``inject_bug`` stamps every scenario with a named oracle bug
    (interpreted by :mod:`repro.fuzz.reference`) — the canary that
    proves the farm can catch, shrink, and reproduce a real defect.
    """

    def __init__(
        self,
        seed: int = 0,
        kinds: Sequence[str] = SCENARIO_KINDS,
        limits: GeneratorLimits = GeneratorLimits(),
        inject_bug: Optional[str] = None,
    ):
        unknown = set(kinds) - set(SCENARIO_KINDS)
        if unknown:
            raise ValueError(f"unknown scenario kinds: {sorted(unknown)}")
        if not kinds:
            raise ValueError("ScenarioGenerator needs at least one kind")
        self.seed = seed
        self.kinds = tuple(kinds)
        self.limits = limits
        self.inject_bug = inject_bug

    def scenario(self, index: int) -> Dict[str, Any]:
        """Generate (deterministically) the index-th scenario."""
        rng = scenario_rng(self.seed, index)
        kind = rng.choice(self.kinds)
        payload_fn = getattr(self, f"_gen_{kind}")
        data = {
            "version": SCENARIO_VERSION,
            "seed": self.seed,
            "index": index,
            "kind": kind,
            "query": rng.choice(("find", "find", "verify")),
            "max_list_length": self.limits.max_list_length,
            "bug": self.inject_bug,
            "payload": payload_fn(rng),
        }
        return validate_scenario(data)

    # -- per-kind payload grammars --------------------------------------

    def _gen_acl(self, rng: random.Random) -> Dict[str, Any]:
        num_rules = rng.randint(2, self.limits.max_acl_rules)
        rules = [
            _acl_rule_to_json(random_acl_rule(rng, min_len=0, max_len=32))
            for _ in range(num_rules - 1)
        ]
        # Catch-all last line, as in the Figure-10 workload.
        rules.append(_acl_rule_to_json(AclRule(action=True)))
        # Mostly ask about the last line (needs reasoning about every
        # earlier line); sometimes about a random inner line or the
        # no-match case (0), which is unsat against a catch-all.
        roll = rng.random()
        if roll < 0.6:
            target = num_rules
        elif roll < 0.9:
            target = rng.randint(1, num_rules)
        else:
            target = 0
        return {"rules": rules, "target_line": target}

    def _gen_nat(self, rng: random.Random) -> Dict[str, Any]:
        rules = [
            _nat_rule_to_json(random_nat_rule(rng))
            for _ in range(rng.randint(1, self.limits.max_nat_rules))
        ]
        acl = [
            _acl_rule_to_json(random_acl_rule(rng, min_len=4, max_len=24))
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.7:
            acl.append(_acl_rule_to_json(AclRule(action=rng.random() < 0.7)))
        return {"rules": rules, "acl": acl}

    def _gen_routemap(self, rng: random.Random) -> Dict[str, Any]:
        num_clauses = rng.randint(2, self.limits.max_clauses)
        clauses = []
        for _ in range(num_clauses - 1):
            prefix = random_prefix(rng, min_len=8, max_len=24)
            ge = rng.randint(prefix.length, 32)
            le = rng.randint(ge, 32)
            clauses.append(
                {
                    "action": rng.random() < 0.6,
                    "match_prefixes": [[_prefix_to_json(prefix), ge, le]],
                    "match_community": (
                        rng.randint(1, 1 << 16) if rng.random() < 0.3 else None
                    ),
                    "match_as_path_contains": (
                        rng.randint(1, 1 << 14) if rng.random() < 0.2 else None
                    ),
                    "set_local_pref": (
                        rng.randint(0, 400) if rng.random() < 0.5 else None
                    ),
                    "set_med": (
                        rng.randint(0, 100) if rng.random() < 0.3 else None
                    ),
                    "add_community": (
                        rng.randint(1, 1 << 16) if rng.random() < 0.3 else None
                    ),
                    "prepend_as": (
                        rng.randint(1, 1 << 14) if rng.random() < 0.2 else None
                    ),
                }
            )
        clauses.append(
            {
                "action": True,
                "match_prefixes": [],
                "match_community": None,
                "match_as_path_contains": None,
                "set_local_pref": None,
                "set_med": None,
                "add_community": None,
                "prepend_as": None,
            }
        )
        target = rng.randint(0, num_clauses)
        check_local_pref = None
        if 1 <= target <= num_clauses and rng.random() < 0.4:
            clause = clauses[target - 1]
            if clause["action"]:
                if clause["set_local_pref"] is not None and rng.random() < 0.7:
                    check_local_pref = clause["set_local_pref"]
                else:
                    check_local_pref = rng.randint(0, 500)
        return {
            "clauses": clauses,
            "target_line": target,
            "check_local_pref": check_local_pref,
        }

    def _maybe_acl_json(
        self, rng: random.Random, permissive_bias: float = 0.7
    ) -> Optional[List[Dict[str, Any]]]:
        if rng.random() >= 0.4:
            return None
        rules = [
            _acl_rule_to_json(random_acl_rule(rng, min_len=0, max_len=16))
            for _ in range(rng.randint(1, 2))
        ]
        if rng.random() < permissive_bias:
            rules.append(_acl_rule_to_json(AclRule(action=True)))
        return rules

    def _gen_path(self, rng: random.Random) -> Dict[str, Any]:
        num_devices = rng.randint(2, self.limits.max_devices)
        # A destination the chain plausibly forwards towards: every
        # device gets a route for it out of port 2 (the chain's out
        # interface), buried among noise routes.
        target = random_prefix(rng, min_len=8, max_len=24)
        devices = []
        for _ in range(num_devices):
            fib = [[_prefix_to_json(target), 2]]
            for _ in range(rng.randint(0, self.limits.max_fib_rules - 1)):
                fib.append(
                    [
                        _prefix_to_json(random_prefix(rng, min_len=0, max_len=32)),
                        rng.randint(1, 3),
                    ]
                )
            rng.shuffle(fib)
            devices.append(
                {
                    "fib": fib,
                    "interfaces": {
                        "in": {
                            "acl_in": self._maybe_acl_json(rng),
                            "acl_out": None,
                            "gre_start": None,
                            "gre_end": None,
                        },
                        "out": {
                            "acl_in": None,
                            "acl_out": self._maybe_acl_json(rng),
                            "gre_start": None,
                            "gre_end": None,
                        },
                    },
                }
            )
        if num_devices >= 2 and rng.random() < 0.5:
            # A GRE tunnel across a sub-chain: encap at device i's out
            # interface, decap at device j's in interface.
            i = rng.randint(0, num_devices - 2)
            j = rng.randint(i + 1, num_devices - 1)
            tunnel = [rng.getrandbits(32), rng.getrandbits(32)]
            devices[i]["interfaces"]["out"]["gre_start"] = tunnel
            devices[j]["interfaces"]["in"]["gre_end"] = tunnel
            # The tunneled hops forward on the underlay destination:
            # give them a route for it so encap'd traffic can survive.
            for k in range(i, j + 1):
                if rng.random() < 0.8:
                    devices[k]["fib"].append([[tunnel[1], 32], 2])
        return {"devices": devices}

    def _gen_topology(self, rng: random.Random) -> Dict[str, Any]:
        """A small compose topology plus its end-to-end query.

        Reuses the workload chain builder (the compose payload format's
        canonical generator) with a scenario-derived seed, so the
        emitted JSON is exactly what :func:`repro.compose.run_composed`
        consumes.  Queries often pin ``dst_ip`` — a constrained header
        cover is what makes assume-guarantee discharge (and the
        ``compose-drop-assumption`` canary) actually bite on rewriting
        chains.
        """
        from ..workloads.generators import chain_query, chain_topology

        num_devices = rng.randint(2, min(4, self.limits.max_devices))
        topo = chain_topology(
            num_devices,
            seed=rng.getrandbits(32),
            nat_probability=rng.choice((0.0, 0.4, 0.7)),
            acl_probability=rng.choice((0.0, 0.4)),
        )
        query = chain_query(num_devices)
        if rng.random() < 0.6:
            length = rng.choice((8, 16, 24, 32))
            mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
            query["headers"] = [
                {"dst_ip": [rng.getrandbits(32) & mask, mask]}
            ]
        return {"topo": topo, "query": query}

    def _gen_zen(self, rng: random.Random) -> Dict[str, Any]:
        width = rng.choice((8, 8, 16))
        num_vars = rng.randint(1, 2)
        depth = rng.randint(2, self.limits.max_ast_depth)
        ast = self._gen_bool_ast(rng, num_vars, width, depth)
        return {"width": width, "vars": num_vars, "ast": ast}

    def _gen_int_ast(
        self, rng: random.Random, num_vars: int, width: int, depth: int
    ) -> List[Any]:
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.6:
                return ["var", rng.randrange(num_vars)]
            # Bias constants towards boundary values, where wraparound
            # and shift edge cases live.
            pool = [0, 1, 2, (1 << width) - 1, (1 << (width - 1)), width]
            if rng.random() < 0.5:
                return ["const", rng.choice(pool)]
            return ["const", rng.randrange(1 << width)]
        roll = rng.random()
        if roll < 0.1:
            return ["bnot", self._gen_int_ast(rng, num_vars, width, depth - 1)]
        if roll < 0.15:
            return ["neg", self._gen_int_ast(rng, num_vars, width, depth - 1)]
        if roll < 0.25:
            return [
                "ite",
                self._gen_bool_ast(rng, num_vars, width, depth - 1),
                self._gen_int_ast(rng, num_vars, width, depth - 1),
                self._gen_int_ast(rng, num_vars, width, depth - 1),
            ]
        op = rng.choice(_INT_BINOPS)
        return [
            op,
            self._gen_int_ast(rng, num_vars, width, depth - 1),
            self._gen_int_ast(rng, num_vars, width, depth - 1),
        ]

    def _gen_bool_ast(
        self, rng: random.Random, num_vars: int, width: int, depth: int
    ) -> List[Any]:
        if depth <= 0:
            return [rng.choice(_CMP_OPS), ["var", 0], ["const", rng.randrange(1 << width)]]
        roll = rng.random()
        if roll < 0.5:
            return [
                rng.choice(_CMP_OPS),
                self._gen_int_ast(rng, num_vars, width, depth - 1),
                self._gen_int_ast(rng, num_vars, width, depth - 1),
            ]
        if roll < 0.8:
            return [
                rng.choice(_BOOL_BINOPS),
                self._gen_bool_ast(rng, num_vars, width, depth - 1),
                self._gen_bool_ast(rng, num_vars, width, depth - 1),
            ]
        if roll < 0.9:
            return ["not", self._gen_bool_ast(rng, num_vars, width, depth - 1)]
        return [
            "bif",
            self._gen_bool_ast(rng, num_vars, width, depth - 1),
            self._gen_bool_ast(rng, num_vars, width, depth - 1),
            self._gen_bool_ast(rng, num_vars, width, depth - 1),
        ]
