"""Tests for the compositional sharding subsystem.

The differential tests are the heart: on small hand-built chains, on
k=4 fabrics and on long NAT chains the composed verdict must equal one
HSA exploration's (:func:`repro.fuzz.oracle.hsa_delivered`), and every
composed "reachable" carries an initial-header witness that the fuzz
farm's reference walker delivers into the target.  NAT topologies also
get known-truth checks, each answered in one dispatch round.
Structural-failure tests pin down the contract: a witness that fails
walk-back or replay raises :class:`~repro.errors.ZenComposeError`,
never a silently wrong verdict; so do a summary read outside the
compose context it names and a recompose fixpoint stopped with work
left.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import threading

import pytest

from repro import ZenFunction
from repro.backends import bitvector
from repro.compose import (
    CANARY_DROP_ASSUMPTION,
    build_network,
    compute_shard_summary,
    plan_shards,
    recompose,
    run_composed,
)
from repro.compose import driver
from repro.compose import shard as shard_module
from repro.compose.shard import _ShardModel, forget
from repro.core import transformers
from repro.errors import (
    ZenComposeError,
    ZenTypeError,
)
from repro.compose.cubes import HEADER_BITS, cover_node
from repro.fuzz import FarmConfig, replay_artifact, run_farm
from repro.fuzz.oracle import hsa_delivered
from repro.fuzz.reference import _walk_topology, reference_inputs, reference_result
from repro.telemetry.metrics import METRICS
from repro.network import (
    Header,
    Hop,
    Trace,
    acl_allows,
    apply_nat,
    forward,
    make_packet,
    simulate,
)
from repro.workloads import (
    chain_query,
    chain_topology,
    fat_tree,
    fat_tree_host_address,
    fat_tree_hosts,
    fat_tree_reach_query,
)


def filter_chain(num_devices: int, *, deny_all_at: str | None = None):
    """A deterministic rewrite-free chain; optionally one device's
    ingress ACL denies everything."""
    topo = chain_topology(num_devices, seed=7, acl_probability=0.0)
    if deny_all_at is not None:
        topo["devices"][deny_all_at]["acl_in"] = {
            "1": [{"action": False, "src": [0, 0], "dst": [0, 0]}]
        }
    return topo


def nat_chain():
    """A two-device chain with exactly known NAT truth.

    ``d0`` rewrites destinations in 10.0.0.0/8 into 192.168.0.0/16;
    ``d1`` delivers 192.168.0.0/16 out its sink port and drops
    everything else on an unlinked port.  So a query pinned to 10/8 is
    reachable (post-NAT header in 192.168/16) and one pinned to 11/8
    is not.
    """
    topo = {
        "devices": {
            "d0": {
                "fib": [[[0, 0], 2]],
                "nat": [
                    {
                        "match_src": [0, 0],
                        "match_dst": [0x0A000000, 8],
                        "translate_src": None,
                        "translate_dst": [0xC0A80000, 16],
                        "set_src_port": None,
                        "set_dst_port": None,
                    }
                ],
            },
            "d1": {
                "fib": [[[0xC0A80000, 16], 2], [[0, 0], 3]],
            },
        },
        "links": [["d0", 2, "d1", 1]],
    }
    query = {
        "mode": "reach",
        "source": ["d0", 1],
        "sink": ["d1", 2],
        "headers": [{"dst_ip": [0x0A000000, 0xFF000000]}],
        "target": None,
    }
    return topo, query


@pytest.fixture
def one_round(monkeypatch):
    """Record every shard summary the driver computes.
    ``one_round(topo, query)`` then checks that the one query since its
    last call used each planned shard's summary once: summarised then
    (at most once each, and only if `topo` is new to the driver) or
    reused (a held topology's, or a shard whose content an earlier
    topology had)."""
    summarised = []
    held = set()
    reused = METRICS.counter("compose.summaries_reused")
    last = [reused.value]

    def summarise(task):
        summarised.append(task["shard_id"])
        return compute_shard_summary(task)

    monkeypatch.setattr(driver, "compute_shard_summary", summarise)

    def check(topo, query) -> bool:
        planned = [task["shard_id"] for task in plan_shards(topo, query).shards]
        content = json.dumps(topo, sort_keys=True)
        assert len(set(summarised)) == len(summarised)
        assert set(summarised) <= (set() if content in held else set(planned))
        assert len(summarised) + reused.value - last[0] == len(planned)
        held.add(content)
        summarised.clear()
        last[0] = reused.value
        return True

    return check


def topology_scenario(topo, query):
    return {"kind": "topology", "payload": {"topo": topo, "query": query}}


def delivers_witness(topo, query, witness) -> bool:
    """The reference walker delivers `witness` into the query's target."""
    return witness is not None and reference_result(
        topology_scenario(topo, query), (Header(**witness),)
    )


def differential(topo, query):
    """The composed verdict, checked against one HSA exploration and the
    reference walker: a "reachable" witness is delivered, and for an
    "unreachable" no reference probe is."""
    composed = run_composed(topo, query)
    delivers = hsa_delivered(topo, query["source"], query.get("headers"))
    assert delivers(query["sink"], query.get("target")) is composed.reachable
    if composed.reachable:
        assert delivers_witness(topo, query, composed.witness)
    else:
        assert composed.witness is None
        scenario = topology_scenario(topo, query)
        for probe in reference_inputs(scenario, random.Random(5), count=24):
            assert not reference_result(scenario, probe), probe
    return composed


class TestComposedMatchesMonolith:
    """Composed verdict == HSA and the reference walker on rewrite-free
    chains: the differential the joint monolithic fixpoint once gave,
    on the same inputs."""

    @pytest.mark.parametrize("num_devices", [2, 3, 4])
    def test_reachable_chain(self, num_devices):
        composed = differential(filter_chain(num_devices), chain_query(num_devices))
        assert composed.reachable is True
        assert composed.shard_count >= 2

    def test_unreachable_when_acl_denies(self):
        topo = filter_chain(3, deny_all_at="d1")
        assert differential(topo, chain_query(3)).reachable is False

    def test_pinned_header_cover(self):
        # Restricting the injected set must not change agreement.
        query = chain_query(2)
        query["headers"] = [{"dst_ip": [0x0A000000, 0xFF000000]}]
        composed = differential(filter_chain(2), query)
        if composed.witness is not None:
            assert (composed.witness["dst_ip"] & 0xFF000000) == 0x0A000000

    def test_large_exit_image_needs_no_fallback(self):
        # Port-range ACLs make d2's exit image a BDD of 91 nodes but more
        # than 4,096 paths: as a cube cover it was "unknown" and sent
        # this rewrite-free query to a second engine.
        topo = chain_topology(3, seed=7)
        topo["devices"]["d1"]["acl_in"] = {
            "1": [
                {
                    "action": True,
                    "src": [0, 0],
                    "dst": [0, 0],
                    "src_ports": [1, 65534],
                    "dst_ports": [1, 65534],
                    "protocol": 6,
                }
            ]
        }
        topo["devices"]["d2"]["acl_in"] = {
            "1": [
                {"action": False, "src": [0x0B000001, 32], "dst": [0, 0]},
                {
                    "action": True,
                    "src": [0, 0],
                    "dst": [0, 0],
                    "src_ports": [3, 65531],
                    "dst_ports": [5, 65529],
                },
            ]
        }
        composed = differential(topo, chain_query(3))
        assert composed.escalations == 0
        assert composed.reachable is True


class TestWitnessIsChecked:
    """A "reachable" stands only on a witness walked back through the
    summaries and replayed concretely; anything else raises."""

    @pytest.mark.parametrize("delivered", ["dropped", "off_target"])
    def test_replay_mismatch_raises(self, monkeypatch, delivered):
        topo, query = filter_chain(3), chain_query(3)
        query["target"] = [{"dst_ip": [0x0A000000, 0xFF000000]}]
        assert run_composed(topo, query).reachable is True
        off_target = make_packet(Header(0x0B000001, 1, 80, 1234, 6))
        if delivered == "dropped":
            walked = Trace((Hop("d1:1", None, off_target),), "dropped_in", None)
        else:
            walked = Trace((Hop("d2:1", "d2:2", off_target),), "exited", off_target)
        monkeypatch.setattr(driver, "simulate", lambda *args: walked)
        with pytest.raises(ZenComposeError, match="replay"):
            run_composed(topo, query)

    def test_forged_hit_raises_on_an_unreachable_nat_query(self, monkeypatch):
        # Delivered headers sit in 192.168/16, so a target asking for
        # pre-NAT 10/8 is unreachable.  A recomposer claiming a hit
        # there has no flow to walk the hit back through.
        topo, query = nat_chain()
        query["target"] = [{"dst_ip": [0x0A000000, 0xFF000000]}]
        assert run_composed(topo, query).reachable is False

        def forged(plan, summaries, bug=None):
            outcome = recompose(plan, summaries, bug=bug)
            manager = outcome.context.manager
            outcome.hit_node = cover_node(manager, outcome.levels, plan.target)
            return outcome

        monkeypatch.setattr(driver, "recompose", forged)
        with pytest.raises(ZenComposeError, match="walks back"):
            run_composed(topo, query)


class TestNatEscalation:
    """Rewriting shards: known-truth verdicts, each from one dispatch
    round — a rewriting shard's summary is exact for any arriving set,
    so there is nothing left to escalate."""

    def test_nat_reachable_known_truth(self, one_round):
        topo, query = nat_chain()
        composed = run_composed(topo, query)
        assert composed.reachable is True
        assert delivers_witness(topo, query, composed.witness)
        # A rewriting shard's summary is exact for any arriving set:
        # one dispatch round decides, nothing is re-proved.
        assert composed.escalations == 0
        assert one_round(topo, query)
        # Concrete confirmation, independent of any Zen model.
        probe = Header(
            dst_ip=0x0A000001, src_ip=1, dst_port=80, src_port=1234, protocol=6
        )
        assert _walk_topology(topo, query, probe, None) is not None

    def test_nat_unreachable_known_truth(self):
        topo, query = nat_chain()
        query["headers"] = [{"dst_ip": [0x0B000000, 0xFF000000]}]
        composed = run_composed(topo, query)
        assert composed.reachable is False
        assert composed.witness is None
        probe = Header(
            dst_ip=0x0B000001, src_ip=1, dst_port=80, src_port=1234, protocol=6
        )
        assert _walk_topology(topo, query, probe, None) is None

    def test_nat_target_cover_discriminates(self):
        # Delivered headers sit in 192.168/16: a target cover there is
        # reachable, one still asking for pre-NAT 10/8 is not.
        topo, query = nat_chain()
        query["target"] = [{"dst_ip": [0xC0A80000, 0xFFFF0000]}]
        assert run_composed(topo, query).reachable is True
        query["target"] = [{"dst_ip": [0x0A000000, 0xFF000000]}]
        assert run_composed(topo, query).reachable is False

    def test_every_nat_chain_is_one_round(self, one_round):
        topo, query = nat_chain()
        for pinned in (0x0A000000, 0x0B000000):
            for target in (None, 0xC0A80000, 0x0A000000):
                asked = {
                    **query,
                    "headers": [{"dst_ip": [pinned, 0xFF000000]}],
                    "target": target and [{"dst_ip": [target, 0xFFFF0000]}],
                }
                run_composed(topo, asked)
                assert one_round(topo, asked)
        topo, query = chain_topology(6, nat_probability=0.5), chain_query(6)
        run_composed(topo, query)
        assert one_round(topo, query)


class TestShardFailure:
    def test_misspelt_budget_key_raises_before_any_dispatch(self):
        """`{"deadline": …}` for `deadline_s` used to build an all-None
        Budget: every shard ran unbounded."""
        dispatched = METRICS.counter("compose.shards_dispatched")
        before = dispatched.value
        with pytest.raises(ZenTypeError, match="deadline"):
            run_composed(filter_chain(3), chain_query(3), budget={"deadline": 0.01})
        assert dispatched.value == before

    def test_plan_covers_every_device(self):
        topo = filter_chain(4)
        plan = plan_shards(topo, chain_query(4))
        planned = set()
        for shard in plan.shards:
            planned |= set(shard["devices"])
        assert planned == set(topo["devices"])


def seeded_devices(seed: int):
    """Devices from the fuzz topology grammar (`chain_topology` with NAT
    and ingress ACLs), each decorated from the same seed with what the
    grammar never emits: an egress ACL, a null-port rule ahead of the
    default route, more ports; plus a device with one out port and one
    with none."""
    rng = random.Random(seed)
    topo = chain_topology(
        4, seed=seed, fib_rules=5, nat_probability=0.7, acl_probability=0.6
    )
    devices = topo["devices"]
    for spec in devices.values():
        # chain FIBs already repeat ports (2, 2, 3, …, default 2).
        spec["fib"].insert(
            rng.randrange(len(spec["fib"])),
            [[rng.getrandbits(32), rng.randint(4, 20)], 0],
        )
        spec["fib"].insert(0, [[rng.getrandbits(32), rng.randint(8, 24)], 7])
        spec["acl_out"] = {
            str(rng.choice((2, 3))): [
                {
                    "action": False,
                    "src": [rng.getrandbits(32), rng.randint(1, 12)],
                    "dst": [0, 0],
                    "dst_ports": [rng.randint(0, 1000), rng.randint(1000, 65535)],
                },
                {"action": True, "src": [0, 0], "dst": [0, 0], "protocol": 6},
            ]
        }
    devices["one_port"] = {
        "fib": [[[0x0A000000, 8], 4], [[0x0A0A0000, 16], 4]],
        "acl_in": {"1": [{"action": True, "src": [0, 0], "dst": [0x0A000000, 9]}]},
    }
    devices["no_port"] = {
        "fib": [[[0, 0], 0]],
        "acl_in": {"1": [{"action": True, "src": [0, 0], "dst": [0, 0]}]},
    }
    return build_network(topo).devices


def fresh_shard_model():
    model = _ShardModel.fresh()
    return model.context, model


def rendered(summary, context=None):
    """`summary` with its guards rendered as one node table and a
    reference into it per flow (:meth:`~repro.bdd.Bdd.export_table`,
    canonical in each BDD's structure), and no context token: the form
    the pinned digests hash, equal for equal guards in any two
    contexts.  `context` is the one the summary was computed in, this
    thread's by default."""
    if context is None:
        context = shard_module.model_of([summary]).context
    levels = context.space(context.universe(Header).zen_type).levels
    images = summary["images"]
    guards = [guard for flows in images.values() for guard, _ in flows]
    table, refs = context.manager.export_table(guards, levels[0], HEADER_BITS)
    ref = iter(refs)
    return {
        "shard_id": summary["shard_id"],
        "table": table,
        "images": {
            pair: [[next(ref), pins] for _, pins in flows]
            for pair, flows in images.items()
        },
        "stats": summary["stats"],
    }


def pinned_fabric(mask: int):
    """The k=4 fat-tree of seed 5 and a query injecting 10.0.0.0/`mask`."""
    topo = fat_tree(4, seed=5, acl_probability=0.3)
    query = fat_tree_reach_query("host_0_0_0", "host_3_1_0")
    query["headers"] = [{"dst_ip": [0x0A000000, mask]}]
    return topo, query


class _Counts:
    """Evaluator sessions opened and `equal_const` calls made since the
    last `take()`."""

    def __init__(self, monkeypatch):
        self.sessions = 0
        self.equal_const = 0
        counts = self

        class Session(transformers.SymbolicEvaluator):
            def __init__(self, *args, **kwargs):
                counts.sessions += 1
                super().__init__(*args, **kwargs)

        original = bitvector.equal_const

        def equal_const(*args, **kwargs):
            counts.equal_const += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(transformers, "SymbolicEvaluator", Session)
        monkeypatch.setattr(bitvector, "equal_const", equal_const)

    def take(self):
        taken = (self.sessions, self.equal_const)
        self.sessions = self.equal_const = 0
        return taken


def payload(spec) -> str:
    """A device payload as canonical JSON: equal for equal configurations."""
    return json.dumps(spec, sort_keys=True)


def acls(device, side):
    """The device's ACLs on one side, by port."""
    return {
        intf.id: getattr(intf, side)
        for intf in device.interfaces
        if getattr(intf, side) is not None
    }


def match_conditions(device) -> int:
    """Prefix / protocol equalities the device's hop model states: one
    per FIB rule, two per NAT rule, two or three per ACL line — for the
    ACLs a hop can meet (an egress ACL on a port no route uses is never
    asked about), and none for a device that forwards nowhere."""

    def acl_conditions(acl):
        return sum(2 + (rule.protocol is not None) for rule in acl.rules)

    out_ports = {rule.port for rule in device.fib.rules} - {0}
    count = sum(map(acl_conditions, acls(device, "acl_in").values()))
    if out_ports:
        count += len(device.fib.rules)
        count += 2 * len(device.nat.rules) if device.nat else 0
        count += sum(
            acl_conditions(acl)
            for port, acl in acls(device, "acl_out").items()
            if port in out_ports
        )
    return count


class TestPerDeviceBuild:
    """A device's IN/PRE sets come from one evaluation of one model."""

    @pytest.mark.parametrize("seed", [3, 24, 77])
    def test_batched_sets_equal_the_sets_built_one_predicate_at_a_time(
        self, seed
    ):
        for model in seeded_devices(seed).values():
            context, shard_model = fresh_shard_model()
            sets = shard_model.sets(model)
            assert sets.out_ports == sorted(
                {rule.port for rule in model.fib.rules} - {0}
            )
            assert set(sets.pre) == set(sets.out_ports)
            # Ports without an ingress ACL get no set: hops use the universe.
            assert set(sets.admitted) == set(acls(model, "acl_in"))
            for port, acl in acls(model, "acl_in").items():
                alone = context.from_predicate(
                    ZenFunction(lambda h, acl=acl: acl_allows(acl, h), [Header])
                )
                assert sets.admitted[port].node == alone.node

            def pre_exit(h, q):
                rewritten = apply_nat(model.nat, h) if model.nat else h
                cond = forward(model.fib, rewritten) == q
                acl = acls(model, "acl_out").get(q)
                if acl is not None:
                    cond = cond & acl_allows(acl, rewritten)
                return cond

            for q in sets.out_ports:
                alone = context.from_predicate(
                    ZenFunction(lambda h, q=q: pre_exit(h, q), [Header])
                )
                assert sets.pre[q].node == alone.node
            assert shard_model.sets(model) is sets  # built once, then kept

    def test_edge_devices(self):
        models = seeded_devices(3)
        _, shard_model = fresh_shard_model()
        one = shard_model.sets(models["one_port"])
        assert one.out_ports == [4] and not one.pre[4].is_empty()
        none = shard_model.sets(models["no_port"])
        assert none.out_ports == [] and none.pre == {}
        assert none.admitted[1].is_universe()

    def test_one_session_and_one_condition_per_rule_per_device(
        self, monkeypatch
    ):
        topo, query = pinned_fabric(0xFF000000)
        shards = plan_shards(topo, query).shards
        counts = _Counts(monkeypatch)
        forget()
        seen = set()
        for shard in shards:
            summary = compute_shard_summary(shard)
            models = build_network(shard).devices
            # Every device of these shards is an entry, so all are touched.
            assert summary["stats"]["devices"] == len(models)
            # One build per configuration not met before, whatever its name.
            new = {
                payload(spec): models[name]
                for name, spec in shard["devices"].items()
                if payload(spec) not in seen
            }
            seen.update(new)
            assert counts.take() == (
                len(new),
                sum(map(match_conditions, new.values())),
            )
        # Warm, the same shards open no session.
        for shard in shards:
            compute_shard_summary(shard)
        assert counts.take() == (0, 0)

    @pytest.mark.parametrize("seed", [3, 24, 77])
    def test_conditions_are_not_multiplied_by_ports(self, monkeypatch, seed):
        counts = _Counts(monkeypatch)
        for model in seeded_devices(seed).values():
            _, shard_model = fresh_shard_model()
            shard_model.sets(model)
            assert counts.take() == (1, match_conditions(model))
            shard_model.sets(model)
            assert counts.take() == (0, 0)

    def test_pinned_fat_tree_summaries(self):
        def summaries(mask):
            topo, query = pinned_fabric(mask)
            out = {}
            for shard in plan_shards(topo, query).shards:
                summary = compute_shard_summary(shard)
                assert summary["stats"].pop("elapsed_ms") >= 0.0
                out[shard["shard_id"]] = summary
            return out

        # A plan is a function of the topology: the 10/8 query and the
        # 10.0.0.0/29 one get the same five summaries (guard nodes,
        # flows, stats).
        fabric = summaries(0xFF000000)
        assert summaries(0xFFFFFFF8) == fabric
        blob = json.dumps(
            {sid: rendered(summary) for sid, summary in fabric.items()},
            sort_keys=True,
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "97a4733831027d4f6fa713e434b5dd5e755dc04df7585cf91913a3771252635f"
        )
        # And one switch in full: from each of its three ports, edge_0_0
        # sends its host's address down port 1 and every other header up
        # port 3.
        edge = fabric["shard1"]
        assert edge["shard_id"] == "shard1"
        assert edge["stats"] == {
            "devices": 4,
            "entries": 14,
            "exits": 14,
            "set_ops": 44,
            "fixpoint_pops": 14,
        }
        images = {
            pair: flows
            for pair, flows in edge["images"].items()
            if pair.startswith("edge_0_0:")
        }
        expected = [
            (f"edge_0_0:{entry}|edge_0_0:{port}", port == 1)
            for entry in (1, 3, 4)
            for port in (1, 3)
        ]
        assert sorted(images) == sorted(pair for pair, _ in expected)
        # A filter shard pins nothing: one flow per pair, its guard the image.
        assert all(len(flows) == 1 and flows[0][1] == {} for flows in images.values())
        model = shard_module.model_of([edge])
        levels, manager = model.levels, model.context.manager
        decoded = [images[pair][0][0] for pair, _ in expected]
        down = cover_node(manager, levels, [{"dst_ip": [0x0A000002, 0xFFFFFFFF]}])
        assert decoded == [
            down if is_down else manager.not_(down) for _, is_down in expected
        ]


class TestPortValidation:
    """Ports are checked where the topology enters, not inside a worker."""

    @pytest.mark.parametrize("port", [300, -2, True])
    @pytest.mark.parametrize("where", ["fib", "link", "acl_in", "acl_out"])
    def test_unrepresentable_port_is_rejected_up_front(self, where, port):
        topo = filter_chain(2)
        if where == "fib":
            topo["devices"]["d1"]["fib"].insert(0, [[0, 0], port])
        elif where == "link":
            topo["links"][0][1] = port
        else:
            topo["devices"]["d1"][where] = {
                port if port is True else str(port): [
                    {"action": True, "src": [0, 0], "dst": [0, 0]}
                ]
            }
        query = chain_query(2)
        with pytest.raises(ValueError, match="port|malformed"):
            plan_shards(topo, query)
        with pytest.raises(ValueError, match="port|malformed"):
            run_composed(topo, query, None)

    @pytest.mark.parametrize("port", [300, 0, True])
    def test_query_points_are_ports_too(self, port):
        query = chain_query(2)
        query["sink"] = ["d1", port]
        with pytest.raises(ValueError, match="sink"):
            plan_shards(filter_chain(2), query)

    @pytest.mark.parametrize(
        "pair", [[True, 1], [1, True]], ids=["bool-value", "bool-mask"]
    )
    def test_boolean_header_bits_are_rejected(self, pair):
        query = chain_query(2, headers=[{"dst_ip": pair}])
        for entry in (plan_shards, run_composed):
            with pytest.raises(ValueError, match="value, mask"):
                entry(filter_chain(2), query)

    def test_every_byte_is_a_port(self):
        topo = filter_chain(2)
        topo["devices"]["d0"]["fib"].insert(0, [[0x0B000000, 8], 255])
        topo["devices"]["d0"]["fib"].insert(0, [[0x0C000000, 8], 0])
        topo["devices"]["d0"]["acl_out"] = {
            "255": [{"action": True, "src": [0, 0], "dst": [0, 0]}]
        }
        assert run_composed(topo, chain_query(2), None).reachable is True


class TestRuleValidation:
    """Rules are checked where the topology enters: each of these once
    passed validation and then died inside a shard with a raw error."""

    @pytest.mark.parametrize(
        "where, rule",
        [
            ("fib", [[0x0A000000, 40], 2]),
            ("fib", [["10.0.0.0", 8], 2]),
            ("acl_in", {"src": [0, 0], "dst": [0, 0]}),
            ("acl_in", {"action": True, "dst_ports": [5]}),
            ("acl_out", {"action": True, "protocol": 300}),
            ("nat", {"match_dst": [0, 0], "set_dst_port": 70000}),
        ],
        ids=[
            "fib-length-40",
            "fib-dotted-address",
            "acl-without-action",
            "acl-one-port-range",
            "acl-protocol-300",
            "nat-port-70000",
        ],
    )
    def test_malformed_rule_is_rejected_up_front(self, where, rule):
        topo = filter_chain(2)
        spec = topo["devices"]["d0"]
        if where == "fib":
            spec["fib"].insert(0, rule)
        elif where == "nat":
            spec["nat"] = [rule]
        else:
            spec[where] = {"2": [rule]}
        query = chain_query(2)
        for entry in (plan_shards, run_composed):
            with pytest.raises(ValueError, match="fib entry|rule"):
                entry(topo, query)


def test_shard_summaries_match_the_pinned_digest():
    """Every shard summary of three k=6 fabrics (five queries each) and
    of a NAT chain, byte for byte.  The digest was re-pinned when
    summaries began to carry node tables, after every image and
    assumption was checked to decode to the node of the cube cover
    the shard shipped before; again when summaries began to ship
    flows, after every fat-tree table and reference was checked equal
    to the filter images before (only the NAT chain's content moved);
    and again when the plan became one per topology, with every shard
    summarised under the universe (five shards a fabric, where there
    were seven a query), after this file's HSA differentials held.
    Summaries now keep their guards as nodes of their context; the
    digest hashes them rendered through `export_table` (`rendered`),
    and did not move."""
    hosts = fat_tree_hosts(6)
    corpus = [
        (
            fat_tree(6, seed=seed, acl_probability=0.3),
            fat_tree_reach_query(hosts[i], hosts[-1 - 3 * i]),
        )
        for seed in (1, 2, 3)
        for i in range(5)
    ]
    corpus.append((chain_topology(6, nat_probability=0.5), chain_query(6)))
    summaries = []
    for topo, query in corpus:
        for shard in plan_shards(topo, query).shards:
            summary = compute_shard_summary(shard)
            assert summary["stats"].pop("elapsed_ms") >= 0.0
            summaries.append(rendered(summary))
    assert len(summaries) == 81
    blob = json.dumps(summaries, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "1b688bf3c77f19ae68f3d416ee4675c55dfde2a67c2e982e34fe4c6e90133893"
    )


def host_address(host: str) -> int:
    _, pod, edge, index = host.split("_")
    return fat_tree_host_address(int(pod), int(edge), int(index))


def blocked_fabric():
    """The k=4 fat tree with sprinkled ACLs, plus one hand-placed ACL:
    ``edge_1_0`` refuses to hand ``host_1_0_0`` its own traffic."""
    topo = fat_tree(4, acl_probability=0.3)
    topo["devices"]["edge_1_0"]["acl_out"] = {
        "1": [
            {"action": False, "dst": [host_address("host_1_0_0"), 32]},
            {"action": True},
        ]
    }
    return topo


def hsa_against_compose(topo, source: str) -> int:
    """For every other host, one HSA exploration from `source` and
    `run_composed` agree on its own address (deliverable unless the
    hand-placed ACL blocks it) and a third host's (never delivered
    there).  Returns how many own addresses were delivered."""
    hosts = [h for h in fat_tree_hosts(4) if h != source]
    delivers = hsa_delivered(topo, (source, 2))
    delivered = 0
    for i, sink in enumerate(hosts):
        third = hosts[(i + 1) % len(hosts)]
        for address in (host_address(sink), host_address(third)):
            query = fat_tree_reach_query(source, sink)
            query["headers"] = [{"dst_ip": [address, 0xFFFFFFFF]}]
            composed = run_composed(topo, query)
            hsa = delivers((sink, 2), query["headers"])
            assert hsa == composed.reachable, (sink, hex(address))
            delivered += composed.reachable
    return delivered


class TestHsaAgreesWithCompose:
    """One fabric, two analyses: HSA's path sets (Fig. 8) over the
    `network.Device` model and the composed verdicts must agree."""

    def test_hsa_agrees_with_compose_from_one_host(self):
        # Six of seven destinations; host_1_0_0 is blocked.
        assert hsa_against_compose(blocked_fabric(), "host_0_0_0") == 6

    @pytest.mark.fuzz
    def test_hsa_agrees_with_compose_on_every_host_pair(self):
        topo = blocked_fabric()
        for source in fat_tree_hosts(4):
            expected = 7 if source == "host_1_0_0" else 6
            assert hsa_against_compose(topo, source) == expected, source

    def test_nat_chain_models_agree(self):
        """``Device.nat`` in ``fwd_in``: acl_in sees the arriving
        header, forwarding and acl_out the rewritten one."""
        topo = {
            "devices": {
                "d0": {"fib": [[[0, 0], 2]]},
                "d1": {
                    # Only pre-NAT 10/8 comes in; only post-NAT leaves.
                    "acl_in": {
                        "1": [
                            {"action": True, "src": [0, 0], "dst": [0x0A000000, 8]}
                        ]
                    },
                    "nat": [
                        {
                            "match_src": [0, 0],
                            "match_dst": [0x0A000000, 8],
                            "translate_dst": [0xC0A80000, 16],
                            "set_dst_port": 8080,
                        }
                    ],
                    "fib": [[[0xC0A80000, 16], 2], [[0, 0], 3]],
                    "acl_out": {
                        "2": [
                            {
                                "action": True,
                                "src": [0, 0],
                                "dst": [0, 0],
                                "dst_ports": [8080, 8080],
                            }
                        ]
                    },
                },
                "d2": {"fib": [[[0xC0A80000, 16], 2], [[0, 0], 3]]},
            },
            "links": [["d0", 2, "d1", 1], ["d1", 2, "d2", 1]],
        }
        query = chain_query(3, headers=[{"dst_ip": [0x0A000000, 0xFF000000]}])
        scenario = {"kind": "topology", "payload": {"topo": topo, "query": query}}
        network = build_network(topo, [query["source"], query["sink"]])
        entry = network.device("d0").interface(1)
        probes = [
            (Header(0x0A000001, 1, 80, 1234, 6),),
            (Header(0x0B000001, 1, 80, 1234, 6),),
        ] + reference_inputs(scenario, random.Random(5), count=24)
        delivered = 0
        for (h,) in probes:
            trace = simulate(network, entry, make_packet(h))
            out = trace.hops[-1].interface_out
            simulated = (
                trace.final_packet.overlay_header
                if trace.outcome == "exited" and out == "d2:2"
                else None
            )
            assert simulated == _walk_topology(topo, query, h, None), h
            delivered += simulated is not None
        assert delivered > 0
        delivers = hsa_delivered(topo, ("d0", 1), query["headers"])
        post_nat = {"dst_ip": [0xC0A80000, 0xFFFF0000], "dst_port": [8080, 0xFFFF]}
        pre_nat = {"dst_ip": [0x0A000000, 0xFF000000]}
        for target, truth in (([post_nat], True), ([pre_nat], False)):
            query["target"] = target
            assert run_composed(topo, query).reachable is truth
            assert delivers(("d2", 2), target) is truth


def long_nat_chain(num_devices: int, seed: int):
    return chain_topology(
        num_devices, seed, nat_probability=0.8, acl_probability=0.3
    )


def nat_targets(topo):
    """No target, then each NAT rule's match and translate prefix."""
    targets = [None]
    for spec in topo["devices"].values():
        for rule in spec.get("nat") or []:
            for address, length in (rule["match_dst"], rule["translate_dst"]):
                mask = 0xFFFFFFFF ^ (0xFFFFFFFF >> length)
                cover = [{"dst_ip": [address & mask, mask]}]
                if cover not in targets:
                    targets.append(cover)
    return targets


def hsa_against_nat_chain(num_devices: int, seed: int) -> int:
    """One HSA exploration of a long NAT chain and `run_composed` agree
    on every target of :func:`nat_targets`; returns how many."""
    topo = long_nat_chain(num_devices, seed)
    query = chain_query(num_devices)
    delivers = hsa_delivered(topo, tuple(query["source"]))
    targets = nat_targets(topo)
    for target in targets:
        query["target"] = target
        composed = run_composed(topo, query)
        assert delivers(tuple(query["sink"]), target) == composed.reachable, (
            num_devices,
            seed,
            target,
        )
    return len(targets)


class TestLongNatChains:
    """Chains of four to eight devices, most of them rewriting: once the
    escalation ladder ran out of rounds on 28 of the 60 below and sent
    them to a monolith that ran out of memory.  Exact summaries answer
    each in one dispatch round, with a witness walked back through
    them."""

    def test_every_long_chain_is_one_round(self, one_round):
        for num_devices in range(4, 9):
            for seed in range(12):
                topo = long_nat_chain(num_devices, seed)
                query = chain_query(num_devices)
                composed = run_composed(topo, query)
                assert composed.escalations == 0
                assert one_round(topo, query)
                assert composed.reachable, (num_devices, seed)
                assert delivers_witness(topo, query, composed.witness), (
                    num_devices,
                    seed,
                )

    @pytest.mark.parametrize("num_devices, seed", [(5, 2), (6, 3)])
    def test_hsa_agrees_on_a_chain_the_ladder_gave_up_on(self, num_devices, seed):
        assert hsa_against_nat_chain(num_devices, seed) > 1

    @pytest.mark.fuzz
    def test_hsa_agrees_with_compose_on_long_nat_chains(self):
        # A fixed sweep plus one fresh seed every run.
        chains = [(n, seed) for n in range(5, 8) for seed in range(4)]
        fresh = random.SystemRandom()
        chains.append((fresh.randrange(5, 8), fresh.randrange(4, 1 << 32)))
        for num_devices, seed in chains:
            assert hsa_against_nat_chain(num_devices, seed) >= 1


class _UntouchableEngine:
    """An engine stub that fails any query handed to it."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("compose handed work to the engine")

    submit = gather = run = _refuse


@pytest.mark.parametrize("shape", ["chain", "fat-tree"])
def test_an_engine_is_never_handed_a_shard(shape):
    """Compose runs in the calling thread: an engine passed to
    `run_composed` is not asked for anything, and the verdict and its
    witness are the engine-less ones."""
    if shape == "chain":
        topo, query = filter_chain(3), chain_query(3)
    else:
        hosts = fat_tree_hosts(4)
        topo = fat_tree(4, seed=3, acl_probability=0.3)
        query = fat_tree_reach_query(hosts[0], hosts[-1])
    forget()
    alone = run_composed(topo, query)
    forget()
    dispatched = METRICS.counter("compose.shards_dispatched").value
    with_engine = run_composed(topo, query, _UntouchableEngine())
    assert METRICS.counter("compose.shards_dispatched").value > dispatched
    assert (with_engine.reachable, with_engine.witness) == (
        alone.reachable,
        alone.witness,
    )


class TestContextGuard:
    """A summary's guards are nodes of the compose context it names.
    Read anywhere else it raises, and no verdict is given."""

    @staticmethod
    def summaries(plan):
        return {t["shard_id"]: compute_shard_summary(t) for t in plan.shards}

    def test_a_summary_of_a_dropped_context_raises(self):
        plan = plan_shards(*pinned_fabric(0xFF000000))
        summaries = self.summaries(plan)
        assert recompose(plan, summaries).hit_node != 0
        forget()
        with pytest.raises(ZenComposeError, match="not nodes here"):
            recompose(plan, summaries)

    def test_a_summary_of_another_context_raises(self):
        plan = plan_shards(*pinned_fabric(0xFF000000))
        ours = self.summaries(plan)
        done = []

        def work():
            done.append((self.summaries(plan), shard_module.held().context))

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=60)
        ((theirs, context),) = done
        # Another thread's context: the same guards, as its own nodes.
        def guards(summaries, context=None):
            renders = [rendered(s, context) for s in summaries.values()]
            return [(r["table"], r["images"]) for r in renders]

        assert guards(theirs, context) == guards(ours)
        with pytest.raises(ZenComposeError, match="not nodes here"):
            recompose(plan, theirs)
        sid = plan.shards[0]["shard_id"]
        with pytest.raises(ZenComposeError, match="not nodes here"):
            recompose(plan, {**ours, sid: theirs[sid]})
        # A budgeted task's context of its own is held by nothing.
        task = plan.shards[-1]
        budgeted = compute_shard_summary({**task, "budget": {"deadline_s": 60.0}})
        with pytest.raises(ZenComposeError, match="not nodes here"):
            recompose(plan, {**ours, task["shard_id"]: budgeted})
        assert recompose(plan, ours).hit_node != 0


def test_a_fixpoint_stopped_with_work_left_raises(monkeypatch):
    """A recompose fixpoint that runs out of pops with entries still on
    its worklist raises rather than answer "unreachable"."""
    hosts = fat_tree_hosts(6)
    topo = fat_tree(6, seed=5, acl_probability=0.3)
    query = fat_tree_reach_query(hosts[0], hosts[-1])
    assert run_composed(topo, query).reachable is True
    recomposer = importlib.import_module("repro.compose.recompose")
    monkeypatch.setattr(recomposer, "MAX_ITERATIONS", 2)
    with pytest.raises(ZenComposeError, match="partial"):
        run_composed(topo, query)
    plan = plan_shards(topo, query)
    summaries = {t["shard_id"]: compute_shard_summary(t) for t in plan.shards}
    with pytest.raises(ZenComposeError, match="partial"):
        recompose(plan, summaries)
    monkeypatch.setattr(recomposer, "MAX_ITERATIONS", 7)  # what it pops
    assert recompose(plan, summaries).hit_node != 0


class TestRecomposerCanary:
    """The farm catches, shrinks, files, and replays the planted
    recomposer bug (dropped interface assumption)."""

    def test_canary_caught_shrunk_filed_replayed(self, tmp_path):
        result = run_farm(
            FarmConfig(
                seed=13,
                count=1,
                kinds=("topology",),
                inject_bug=CANARY_DROP_ASSUMPTION,
                service_every=0,
                max_failures=1,
            ),
            artifact_dir=str(tmp_path),
        )
        assert result.failed == 1
        assert ("unsat_refuted",) in result.signatures
        artifact = result.artifacts[0]
        assert artifact["scenario"]["bug"] == CANARY_DROP_ASSUMPTION
        assert (
            artifact["shrink"]["minimized_size"]
            <= artifact["shrink"]["original_size"]
        )
        # The filed artifact is plain JSON and replays deterministically.
        path = result.artifact_paths[0]
        json.loads(open(path).read())
        reproduced, report = replay_artifact(path)
        assert reproduced
        assert report.signature == ("unsat_refuted",)

    def test_canary_flips_known_truth(self):
        # Direct mechanism check, no farm: the buggy recomposer chains
        # a rewriting shard as a filter, so the pinned pre-NAT cover
        # never intersects the post-NAT image and the verdict flips.
        topo, query = nat_chain()
        assert run_composed(topo, query).reachable is True
        buggy = run_composed(topo, query, bug=CANARY_DROP_ASSUMPTION)
        assert buggy.reachable is False
