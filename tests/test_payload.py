"""Tests for the one JSON schema of network payloads
(:mod:`repro.network.payload`).

Compose topologies and fuzz scenarios both describe rules in this
schema; the tests pin that the two entry points accept and reject the
same fragments, that unknown keys and second spellings of a port are
errors rather than silent wildcards, and that every rule shape's codec
round-trips the workload generators' model objects.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compose import monolithic_verdict, plan_shards, run_composed
from repro.compose.topo import validate_topology
from repro.fuzz import ScenarioGenerator, validate_scenario
from repro.network import FwdRule, GreTunnel, Prefix, RouteMapClause, ip_to_int
from repro.network.payload import (
    ACL_RULE,
    CLAUSE,
    FIB_ENTRY,
    GRE_ENDPOINT,
    NAT_RULE,
    acl_from_json,
    nat_from_json,
)
from repro.network.routemap import PrefixRange
from repro.workloads import (
    chain_query,
    chain_topology,
    random_acl,
    random_acl_rule,
    random_nat_rule,
    random_prefix,
    random_route_map,
)

ANY = [0, 0]
TEN_SLASH_8 = [ip_to_int("10.0.0.0"), 8]


def deny_ten_chain(dst_key: str) -> dict:
    """A two-device chain whose entry ACL denies 10/8 and permits the
    rest, with the deny rule's destination under `dst_key`."""
    topo = chain_topology(2)
    topo["devices"]["d0"]["acl_in"] = {
        "1": [{"action": False, dst_key: TEN_SLASH_8}, {"action": True}]
    }
    return topo


def eleven_query() -> dict:
    return chain_query(2, headers=[{"dst_ip": [ip_to_int("11.0.0.1"), 0xFFFFFFFF]}])


# ----------------------------------------------------------------------
# One fragment, two entry points
# ----------------------------------------------------------------------


def topology_with(where: str, fragment) -> dict:
    """A valid chain topology carrying `fragment` as a device field."""
    topo = chain_topology(2)
    device = topo["devices"]["d0"]
    if where == "acl":
        device["acl_in"] = {"1": [fragment, {"action": True}]}
    elif where == "nat":
        device["nat"] = [fragment]
    else:
        device["fib"].insert(0, fragment)
    return topo


def scenario_with(where: str, fragment) -> dict:
    """A valid acl/nat/path scenario carrying `fragment`."""
    kind = "path" if where == "fib" else where
    data = ScenarioGenerator(seed=0, kinds=(kind,)).scenario(0)
    payload = data["payload"]
    if where == "acl":
        payload["rules"] = [fragment, {"action": True, "src": ANY, "dst": ANY}]
        payload["target_line"] = 2
    elif where == "nat":
        payload["rules"] = [fragment]
    else:
        payload["devices"][0]["fib"].insert(0, fragment)
    return data


def acl_rule(**fields) -> dict:
    return {"action": True, "src": ANY, "dst": ANY, **fields}


def nat_rule(**fields) -> dict:
    return {"match_src": ANY, "match_dst": ANY, **fields}


#: (where, fragment, a word the error must name) — each once passed one
#: of the two validators.
MALFORMED = [
    ("acl", acl_rule(src=[True, 1]), "src"),
    ("acl", acl_rule(protocol=True), "protocol"),
    ("fib", [ANY, True], "fib entry"),
    ("acl", acl_rule(src_ports=[9, 3]), "src_ports"),
    ("acl", acl_rule(dts=TEN_SLASH_8), "dts"),
    ("acl", acl_rule(action=1), "action"),
    ("acl", acl_rule(dst=[0, 33]), "dst"),
    ("acl", acl_rule(dst_ports=[0, 65536]), "dst_ports"),
    ("nat", nat_rule(set_src_port=True), "set_src_port"),
    ("nat", nat_rule(match_dst=[False, 0]), "match_dst"),
    ("nat", nat_rule(translate_dstt=TEN_SLASH_8), "translate_dstt"),
    ("nat", nat_rule(translate_src=[1, 2, 3]), "translate_src"),
    ("fib", [[0, 40], 2], "fib entry"),
    ("fib", [ANY, 256], "fib entry"),
]


@pytest.mark.parametrize(
    "where, fragment, names",
    MALFORMED,
    ids=[
        "bool-prefix-address",
        "bool-protocol",
        "bool-fib-port",
        "reversed-port-range",
        "unknown-acl-key",
        "int-action",
        "prefix-length-33",
        "port-65536",
        "bool-nat-port",
        "bool-nat-prefix",
        "unknown-nat-key",
        "three-element-prefix",
        "fib-length-40",
        "fib-port-256",
    ],
)
def test_both_validators_reject_the_same_fragment(where, fragment, names):
    with pytest.raises(ValueError, match=names):
        validate_topology(topology_with(where, fragment))
    with pytest.raises(ValueError, match=names):
        validate_scenario(scenario_with(where, fragment))


@pytest.mark.parametrize("where", ["acl", "nat", "fib"])
def test_both_validators_accept_the_baseline(where):
    fragment = {"acl": acl_rule(), "nat": nat_rule(), "fib": [ANY, 2]}[where]
    validate_topology(topology_with(where, fragment))
    validate_scenario(scenario_with(where, fragment))


# ----------------------------------------------------------------------
# Closed dicts and one spelling per port
# ----------------------------------------------------------------------


class TestClosedDicts:
    def test_misspelt_key_is_an_error_not_a_wildcard(self):
        assert run_composed(deny_ten_chain("dst"), eleven_query(), None).reachable
        topo = deny_ten_chain("dts")
        for entry in (plan_shards, run_composed, monolithic_verdict):
            with pytest.raises(ValueError, match=r"\[0\]: unknown ACL rule key 'dts'"):
                entry(topo, eleven_query())

    @pytest.mark.parametrize(
        "field, value, names",
        [
            ("fibb", [], "unknown device key 'fibb'"),
            ("nat", [nat_rule(translate_dstt=ANY)], "unknown NAT rule key"),
            ("acl_out", {"2": [{"action": True, "dts": ANY}]}, "'dts'"),
        ],
    )
    def test_topology_rejects_unknown_keys(self, field, value, names):
        topo = chain_topology(2)
        topo["devices"]["d1"][field] = value
        with pytest.raises(ValueError, match=names):
            validate_topology(topo)

    def test_misspelt_query_key_is_an_error_not_the_universe(self):
        # d1 denies 11/8, so 11.0.0.1 is never delivered; spelt `header`,
        # the cover was ignored and every header was injected instead.
        topo = chain_topology(2)
        deny = {"action": False, "dst": [ip_to_int("11.0.0.0"), 8]}
        topo["devices"]["d1"]["acl_in"] = {"1": [deny, {"action": True}]}
        assert run_composed(topo, eleven_query(), None).reachable is False
        query = eleven_query()
        query["header"] = query.pop("headers")
        for entry in (plan_shards, run_composed, monolithic_verdict):
            with pytest.raises(ValueError, match="unknown query key 'header'"):
                entry(topo, query)

    @pytest.mark.parametrize(
        "payload, key",
        [("topology", "linkz"), ("topology", "group"), ("query", "targets")],
    )
    def test_topology_and_query_reject_unknown_keys(self, payload, key):
        topo, query = chain_topology(2), chain_query(2)
        (topo if payload == "topology" else query)[key] = []
        with pytest.raises(ValueError, match=f"unknown {payload} key '{key}'"):
            plan_shards(topo, query)

    def test_scenario_rejects_an_unknown_clause_key(self):
        data = ScenarioGenerator(seed=0, kinds=("routemap",)).scenario(0)
        data["payload"]["clauses"][0]["set_medd"] = 5
        with pytest.raises(ValueError, match="unknown route-map clause key"):
            validate_scenario(data)

    @pytest.mark.parametrize("where", ["device", "interface"])
    def test_scenario_rejects_unknown_path_keys(self, where):
        data = ScenarioGenerator(seed=0, kinds=("path",)).scenario(0)
        device = data["payload"]["devices"][0]
        target = device if where == "device" else device["interfaces"]["in"]
        target["gre_strat"] = None
        with pytest.raises(ValueError, match="gre_strat"):
            validate_scenario(data)


class TestPortKeys:
    @pytest.mark.parametrize("keys", [("1", "01"), ("01", "1")])
    def test_two_spellings_of_one_port_are_rejected(self, keys):
        topo = chain_topology(2)
        deny, permit = [{"action": False}], [{"action": True}]
        topo["devices"]["d0"]["acl_in"] = {keys[0]: deny, keys[1]: permit}
        with pytest.raises(ValueError, match="port key '01'"):
            run_composed(topo, chain_query(2), None)

    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1.0", "١"])
    def test_port_keys_are_canonical_decimal(self, key):
        topo = chain_topology(2)
        topo["devices"]["d0"]["acl_in"] = {key: [{"action": True}]}
        with pytest.raises(ValueError, match="canonical decimal"):
            validate_topology(topo)


# ----------------------------------------------------------------------
# Round trips: decode(encode(x)) == x and encode(x) validates
# ----------------------------------------------------------------------

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def assert_round_trip(shape, obj) -> None:
    data = shape.encode(obj)
    shape.check(data, "x")
    assert shape.decode(data) == obj
    wire = json.loads(json.dumps(data))
    shape.check(wire, "x")
    assert shape.decode(wire) == obj


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_acl_rules_round_trip(seed):
    rng = random.Random(seed)
    acl = random_acl(rng.randint(1, 6), rng=rng)
    for rule in acl.rules:
        assert_round_trip(ACL_RULE, rule)
    assert_round_trip(ACL_RULE, random_acl_rule(rng, min_len=0, max_len=32))
    assert acl_from_json([ACL_RULE.encode(r) for r in acl.rules], acl.name) == acl


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_nat_rules_round_trip(seed):
    rng = random.Random(seed)
    rules = [random_nat_rule(rng) for _ in range(3)]
    for rule in rules:
        assert_round_trip(NAT_RULE, rule)
    table = nat_from_json([NAT_RULE.encode(r) for r in rules], "t")
    assert table.rules == tuple(rules)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_route_map_clauses_round_trip(seed):
    rng = random.Random(seed)
    for clause in random_route_map(rng.randint(1, 5), rng=rng).clauses:
        assert_round_trip(CLAUSE, clause)


optional_uint = st.none() | st.integers(0, 2**32 - 1)
optional_ushort = st.none() | st.integers(0, 2**16 - 1)


@st.composite
def prefix_ranges(draw):
    prefix = Prefix(draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 32)))
    ge = draw(st.integers(0, 32))
    return PrefixRange(prefix, ge=ge, le=draw(st.integers(ge, 32)))


@settings(max_examples=150, deadline=None)
@given(
    st.builds(
        RouteMapClause,
        action=st.booleans(),
        match_prefixes=st.lists(prefix_ranges(), max_size=3).map(tuple),
        match_community=optional_uint,
        match_as_path_contains=optional_ushort,
        set_local_pref=optional_uint,
        set_med=optional_uint,
        add_community=optional_uint,
        prepend_as=optional_ushort,
    )
)
def test_every_clause_field_round_trips(clause):
    assert_round_trip(CLAUSE, clause)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(0, 255))
def test_fib_entries_round_trip(seed, port):
    prefix = random_prefix(random.Random(seed), min_len=0, max_len=32)
    assert_round_trip(FIB_ENTRY, FwdRule(prefix, port))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_gre_endpoints_round_trip(src_ip, dst_ip):
    assert_round_trip(GRE_ENDPOINT, GreTunnel(src_ip, dst_ip))


def test_missing_and_null_fields_are_wildcards():
    assert ACL_RULE.decode({"action": True}) == ACL_RULE.decode(
        {"action": True, "src": None, "dst": None, "protocol": None}
    )
    assert ACL_RULE.decode({"action": False}).src == Prefix(0, 0)
    assert NAT_RULE.decode({}).translate_dst is None
    assert CLAUSE.decode({"action": True}) == RouteMapClause(action=True)
