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
from ..network.acl import AclRule, acl_allows, acl_match_line
from ..network.device import Device, Interface, forward_along_path
from ..network.fib import FwdRule
from ..network.gre import GreTunnel
from ..network.ip import MAX_IP, Prefix
from ..network.nat import apply_nat
from ..network.packet import Header, Packet
from ..network.payload import (
    ACL_RULE,
    CLAUSE,
    FIB_ENTRY,
    GRE_ENDPOINT,
    NAT_RULE,
    acl_from_json,
    check_interface,
    check_list,
    fib_from_json,
    interface_from_json,
    is_int,
    nat_from_json,
)
from ..network.routemap import (
    PrefixRange,
    Route,
    RouteMap,
    RouteMapClause,
    apply_route_map,
    route_map_match_line,
)
from ..workloads.generators import (
    maybe_int,
    random_acl_rule,
    random_nat_rule,
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
            name, [CLAUSE.decode(c) for c in payload["clauses"]]
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
        device = Device(name=f"d{position}", fib=fib_from_json(desc["fib"]))
        for intf_id, role in ((1, "in"), (2, "out")):
            spec = desc["interfaces"][role]
            name = f"d{position}:{intf_id}"
            intf = interface_from_json(spec, intf_id, device, name)
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


def _check_acl(rules: Any, where: str) -> None:
    """An ACL of at least one rule; a missing or null ``src``/``dst``
    is a wildcard, as everywhere in the payload schema."""
    check_list(ACL_RULE, rules, where)
    _require(rules, f"{where}: needs >= 1 rule")


def _validate_int_ast(node: Any, num_vars: int, width: int, depth: int) -> None:
    _require(depth < 32, "zen ast too deep")
    _require(
        isinstance(node, (list, tuple)) and node and isinstance(node[0], str),
        "zen ast node must be [op, ...]",
    )
    op = node[0]
    if op == "var":
        _require(
            len(node) == 2 and is_int(node[1], num_vars - 1),
            "zen var index out of range",
        )
        return
    if op == "const":
        _require(
            len(node) == 2 and is_int(node[1], (1 << width) - 1),
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
    _require(is_int(data.get("max_list_length"), 8, 1), "bad max_list_length")
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
        _check_acl(payload.get("rules"), "acl.rules")
        _require(
            is_int(payload.get("target_line"), len(payload["rules"])),
            "acl.target_line out of range",
        )
    elif kind == "nat":
        check_list(NAT_RULE, payload.get("rules"), "nat.rules")
        _check_acl(payload.get("acl"), "nat.acl")
    elif kind == "routemap":
        clauses = payload.get("clauses")
        check_list(CLAUSE, clauses, "routemap.clauses")
        _require(clauses, "routemap needs clauses")
        _require(
            is_int(payload.get("target_line"), len(clauses)),
            "routemap.target_line out of range",
        )
        check = payload.get("check_local_pref")
        _require(
            check is None or is_int(check, MAX_IP),  # a UInt local pref
            "routemap.check_local_pref out of range",
        )
    elif kind == "path":
        devices = payload.get("devices")
        _require(isinstance(devices, list) and devices, "path needs devices")
        for i, desc in enumerate(devices):
            where = f"path.devices[{i}]"
            _require(isinstance(desc, dict), f"{where} must be a dict")
            _require(
                set(desc) == {"fib", "interfaces"},
                f"{where}: a path device has the keys fib and interfaces, "
                f"not {list(desc)}",
            )
            check_list(FIB_ENTRY, desc["fib"], f"{where}.fib")
            intfs = desc["interfaces"]
            _require(
                isinstance(intfs, dict) and set(intfs) == {"in", "out"},
                f"{where}.interfaces needs in/out",
            )
            for role, spec in intfs.items():
                at = f"{where}.interfaces.{role}"
                check_interface(spec, at)
                for key in ("acl_in", "acl_out"):
                    if spec.get(key) is not None:
                        _check_acl(spec[key], f"{at}.{key}")
    elif kind == "topology":
        topo = payload.get("topo")
        query = payload.get("query")
        _require(isinstance(topo, dict), "topology needs a topo dict")
        _require(isinstance(query, dict), "topology needs a query dict")
        # Compose validates topologies and queries (each device through
        # repro.network.payload); its validators raise the same
        # ValueError contract the shrinker relies on.
        from ..compose.topo import validate_query, validate_topology

        validate_topology(topo)
        validate_query(topo, query)
        _require(
            len(topo["devices"]) <= 8,
            "topology scenarios stay small (<= 8 devices)",
        )
    else:  # kind == "zen"
        width = payload.get("width")
        _require(is_int(width, 16) and width in (8, 16), "zen.width must be 8 or 16")
        num_vars = payload.get("vars")
        _require(is_int(num_vars, 2, 1), "zen.vars must be 1 or 2")
        _validate_bool_ast(payload.get("ast"), num_vars, width, 0)
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
            ACL_RULE.encode(random_acl_rule(rng, min_len=0, max_len=32))
            for _ in range(num_rules - 1)
        ]
        # Catch-all last line, as in the Figure-10 workload.
        rules.append(ACL_RULE.encode(AclRule(action=True)))
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
            NAT_RULE.encode(random_nat_rule(rng))
            for _ in range(rng.randint(1, self.limits.max_nat_rules))
        ]
        acl = [
            ACL_RULE.encode(random_acl_rule(rng, min_len=4, max_len=24))
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.7:
            acl.append(ACL_RULE.encode(AclRule(action=rng.random() < 0.7)))
        return {"rules": rules, "acl": acl}

    def _gen_routemap(self, rng: random.Random) -> Dict[str, Any]:
        num_clauses = rng.randint(2, self.limits.max_clauses)
        clauses = []
        for _ in range(num_clauses - 1):
            prefix = random_prefix(rng, min_len=8, max_len=24)
            ge = rng.randint(prefix.length, 32)
            le = rng.randint(ge, 32)
            clauses.append(
                CLAUSE.encode(
                    RouteMapClause(
                        action=rng.random() < 0.6,
                        match_prefixes=(PrefixRange(prefix, ge=ge, le=le),),
                        match_community=maybe_int(rng, 0.3, 1, 1 << 16),
                        match_as_path_contains=maybe_int(rng, 0.2, 1, 1 << 14),
                        set_local_pref=maybe_int(rng, 0.5, 0, 400),
                        set_med=maybe_int(rng, 0.3, 0, 100),
                        add_community=maybe_int(rng, 0.3, 1, 1 << 16),
                        prepend_as=maybe_int(rng, 0.2, 1, 1 << 14),
                    )
                )
            )
        clauses.append(CLAUSE.encode(RouteMapClause(action=True)))
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
            ACL_RULE.encode(random_acl_rule(rng, min_len=0, max_len=16))
            for _ in range(rng.randint(1, 2))
        ]
        if rng.random() < permissive_bias:
            rules.append(ACL_RULE.encode(AclRule(action=True)))
        return rules

    def _gen_path(self, rng: random.Random) -> Dict[str, Any]:
        num_devices = rng.randint(2, self.limits.max_devices)
        # A destination the chain plausibly forwards towards: every
        # device gets a route for it out of port 2 (the chain's out
        # interface), buried among noise routes.
        target = random_prefix(rng, min_len=8, max_len=24)
        devices = []
        for _ in range(num_devices):
            fib = [FIB_ENTRY.encode(FwdRule(target, 2))]
            for _ in range(rng.randint(0, self.limits.max_fib_rules - 1)):
                noise = random_prefix(rng, min_len=0, max_len=32)
                fib.append(FIB_ENTRY.encode(FwdRule(noise, rng.randint(1, 3))))
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
            tunnel = GRE_ENDPOINT.encode(
                GreTunnel(rng.getrandbits(32), rng.getrandbits(32))
            )
            devices[i]["interfaces"]["out"]["gre_start"] = tunnel
            devices[j]["interfaces"]["in"]["gre_end"] = tunnel
            # The tunneled hops forward on the underlay destination:
            # give them a route for it so encap'd traffic can survive.
            for k in range(i, j + 1):
                if rng.random() < 0.8:
                    route = FwdRule(Prefix(tunnel[1], 32), 2)
                    devices[k]["fib"].append(FIB_ENTRY.encode(route))
        return {"devices": devices}

    def _gen_topology(self, rng: random.Random) -> Dict[str, Any]:
        """A small compose topology plus its end-to-end query.

        Reuses the workload chain builder (the compose payload format's
        canonical generator) with a scenario-derived seed, so the
        emitted JSON is exactly what :func:`repro.compose.run_composed`
        consumes.  Queries often pin ``dst_ip``: a constrained header
        cover is what makes the recomposer's quantification of a NAT
        flow's rewritten bits matter, so the ``compose-drop-assumption``
        canary, which chains a flow without it, actually bites on
        rewriting chains.  A target aimed at a NAT prefix makes some
        verdicts "unreachable", which the oracle's HSA arm judges.  The
        farm draws two to four devices; longer rewriting chains get the
        same HSA oracle in the compose tests.
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
        # The last draw, so every field above keeps its value: aim the
        # target at a NAT rule's match or translate prefix, which the
        # rewritten headers hit or miss.  Without a target every
        # verdict is "reachable", and a recomposer that always answers
        # so would pass.
        prefixes = [
            prefix
            for spec in topo["devices"].values()
            for rule in spec.get("nat") or []
            for prefix in (rule.get("match_dst"), rule.get("translate_dst"))
            if prefix
        ]
        if prefixes and rng.random() < 0.7:
            address, length = rng.choice(prefixes)
            mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
            query["target"] = [{"dst_ip": [address & mask, mask]}]
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
