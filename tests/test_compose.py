"""Tests for the compositional sharding subsystem.

The differential tests are the heart: on small hand-built chains the
composed verdict must equal the monolithic fixpoint's for reachable,
unreachable, and counterexample cases.  NAT topologies get
known-truth checks instead (the joint fixpoint's transition relation
blows up under rewrites — that asymmetry is the whole point of the
subsystem) plus the escalation-path assertions.  Structural-failure
and chaos tests pin down the service contract: a lost shard raises
:class:`~repro.errors.ZenComposeError`, never a silently wrong
verdict, while a killed worker is absorbed by respawn + retry.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

import pytest

from repro import ZenFunction
from repro.backends import bitvector
from repro.compose import (
    CANARY_DROP_ASSUMPTION,
    compute_shard_summary,
    monolithic_verdict,
    plan_shards,
    run_composed,
    simulate,
)
from repro.compose.shard import _ShardModel
from repro.compose.topo import device_model
from repro.core import transformers
from repro.core.transformers import TransformerContext
from repro.errors import (
    ZenBudgetExceeded,
    ZenComposeError,
    ZenServiceError,
    ZenTypeError,
)
from repro.fuzz import FarmConfig, replay_artifact, run_farm
from repro.network import Header, acl_allows, apply_nat, forward
from repro.workloads import (
    chain_query,
    chain_topology,
    fat_tree,
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


class TestComposedMatchesMonolith:
    """Composed verdict == monolithic fixpoint on rewrite-free chains."""

    @pytest.mark.parametrize("num_devices", [2, 3, 4])
    def test_reachable_chain(self, num_devices):
        topo = filter_chain(num_devices)
        query = chain_query(num_devices)
        composed = run_composed(topo, query)
        mono = monolithic_verdict(topo, query)
        assert composed.reachable is True
        assert composed.reachable == mono.reachable
        assert not composed.monolith_fallback
        assert composed.shard_count >= 2
        # Both witnesses are *initial* headers: concrete replay must
        # deliver each end to end.
        for witness in (composed.witness, mono.witness):
            assert witness is not None
            assert simulate(topo, query, witness)["delivered"]

    def test_unreachable_when_acl_denies(self):
        topo = filter_chain(3, deny_all_at="d1")
        query = chain_query(3)
        composed = run_composed(topo, query)
        mono = monolithic_verdict(topo, query)
        assert composed.reachable is False
        assert mono.reachable is False
        assert composed.witness is None
        assert not composed.monolith_fallback

    def test_pinned_header_cover(self):
        # Restricting the injected set must not change agreement.
        topo = filter_chain(2)
        query = chain_query(2)
        query["headers"] = [{"dst_ip": [0x0A000000, 0xFF000000]}]
        composed = run_composed(topo, query)
        mono = monolithic_verdict(topo, query)
        assert composed.reachable == mono.reachable
        if composed.witness is not None:
            assert (composed.witness["dst_ip"] & 0xFF000000) == 0x0A000000

    def test_monolith_leaves_the_recursion_limit_alone(self):
        # The monolith raises the limit for its own deep evaluation
        # only; a raised limit left behind lets later deep recursion
        # in the same process overrun the C stack.
        before = sys.getrecursionlimit()
        monolithic_verdict(filter_chain(2), chain_query(2))
        assert sys.getrecursionlimit() == before
        with pytest.raises(ZenBudgetExceeded):
            monolithic_verdict(
                filter_chain(2), chain_query(2), budget={"max_bdd_nodes": 8}
            )
        assert sys.getrecursionlimit() == before


class TestNatEscalation:
    """Rewriting shards: known-truth verdicts via the escalation path."""

    def test_nat_reachable_known_truth(self):
        topo, query = nat_chain()
        composed = run_composed(topo, query)
        assert composed.reachable is True
        assert not composed.monolith_fallback
        assert composed.exact
        # A rewriting shard taints the first recompose pass; the
        # verdict must have been re-proved under exact assumptions.
        assert composed.escalations >= 1
        # Concrete confirmation, independent of any symbolic engine.
        probe = {
            "dst_ip": 0x0A000001,
            "src_ip": 1,
            "dst_port": 80,
            "src_port": 1234,
            "protocol": 6,
        }
        assert simulate(topo, query, probe)["delivered"]

    def test_nat_unreachable_known_truth(self):
        topo, query = nat_chain()
        query["headers"] = [{"dst_ip": [0x0B000000, 0xFF000000]}]
        composed = run_composed(topo, query)
        assert composed.reachable is False
        assert not composed.monolith_fallback
        probe = {
            "dst_ip": 0x0B000001,
            "src_ip": 1,
            "dst_port": 80,
            "src_port": 1234,
            "protocol": 6,
        }
        assert not simulate(topo, query, probe)["delivered"]

    def test_nat_target_cover_discriminates(self):
        # Delivered headers sit in 192.168/16: a target cover there is
        # reachable, one still asking for pre-NAT 10/8 is not.
        topo, query = nat_chain()
        query["target"] = [{"dst_ip": [0xC0A80000, 0xFFFF0000]}]
        assert run_composed(topo, query).reachable is True
        query["target"] = [{"dst_ip": [0x0A000000, 0xFF000000]}]
        assert run_composed(topo, query).reachable is False


class _LostShardEngine:
    """An engine stub whose every shard dispatch fails terminally."""

    def __init__(self):
        self.submitted = []

    def submit(self, spec, wait=False):
        self.submitted.append(spec)
        return spec

    def gather(self, futures):
        return [
            ZenServiceError(f"worker lost running {spec.label}")
            for spec in futures
        ]


class TestShardFailure:
    def test_lost_shard_raises_structurally(self):
        topo = filter_chain(3)
        query = chain_query(3)
        engine = _LostShardEngine()
        with pytest.raises(ZenComposeError) as excinfo:
            run_composed(topo, query, engine)
        assert engine.submitted, "shards must have been dispatched"
        assert excinfo.value.shard_id
        assert excinfo.value.causes
        assert isinstance(excinfo.value.causes[0], ZenServiceError)

    def test_misspelt_budget_key_raises_before_any_dispatch(self):
        """`{"deadline": …}` for `deadline_s` used to build an all-None
        Budget: every shard and the fallback ran unbounded."""
        topo = filter_chain(3)
        query = chain_query(3)
        engine = _LostShardEngine()
        with pytest.raises(ZenTypeError, match="deadline"):
            run_composed(topo, query, engine, budget={"deadline": 0.01})
        assert engine.submitted == []
        with pytest.raises(ZenTypeError, match="deadline"):
            monolithic_verdict(topo, query, budget={"deadline": 0.01})

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
    return {name: device_model(name, spec) for name, spec in devices.items()}


def fresh_shard_model():
    context = TransformerContext()
    header_type = context.universe(Header).zen_type
    levels = context.space(header_type).levels
    return context, _ShardModel(context, header_type, levels, None)


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


def match_conditions(model) -> int:
    """Prefix / protocol equalities the device's hop model states: one
    per FIB rule, two per NAT rule, two or three per ACL line — for the
    ACLs a hop can meet (an egress ACL on a port no route uses is never
    asked about), and none for a device that forwards nowhere."""

    def acl_conditions(acl):
        return sum(2 + (rule.protocol is not None) for rule in acl.rules)

    out_ports = {rule.port for rule in model.fib.rules} - {0}
    count = sum(acl_conditions(acl) for acl in model.acl_in.values())
    if out_ports:
        count += len(model.fib.rules)
        count += 2 * len(model.nat.rules) if model.nat else 0
        count += sum(
            acl_conditions(acl)
            for port, acl in model.acl_out.items()
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
            assert set(sets.admitted) == set(model.acl_in)
            for port, acl in model.acl_in.items():
                alone = context.from_predicate(
                    ZenFunction(lambda h, acl=acl: acl_allows(acl, h), [Header])
                )
                assert sets.admitted[port].node == alone.node

            def pre_exit(h, q):
                rewritten = apply_nat(model.nat, h) if model.nat else h
                cond = forward(model.fib, rewritten) == q
                acl = model.acl_out.get(q)
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
        counts = _Counts(monkeypatch)
        for shard in plan_shards(topo, query).shards:
            summary = compute_shard_summary(shard)
            models = [
                device_model(name, spec)
                for name, spec in shard["devices"].items()
            ]
            # Every device of these shards is an entry, so all are touched.
            assert summary["stats"]["devices"] == len(models)
            assert counts.take() == (
                len(models),
                sum(map(match_conditions, models)),
            )

    @pytest.mark.parametrize("seed", [3, 24, 77])
    def test_conditions_are_not_multiplied_by_ports(self, monkeypatch, seed):
        counts = _Counts(monkeypatch)
        for model in seeded_devices(seed).values():
            _, shard_model = fresh_shard_model()
            shard_model.sets(model)
            assert counts.take() == (1, match_conditions(model))

    def test_pinned_fat_tree_summaries(self):
        def summaries(mask):
            topo, query = pinned_fabric(mask)
            out = {}
            for shard in plan_shards(topo, query).shards:
                summary = compute_shard_summary(shard)
                assert summary["stats"].pop("elapsed_ms") >= 0.0
                out[shard["shard_id"]] = summary
            return out

        # The per-port build of the parent commit gives this digest for
        # the seven summaries of the 10/8 query (images, flags, stats).
        blob = json.dumps(summaries(0xFF000000), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "497e508fff80076f4b0de4805bd2a03d67052cb134e6abbbeccc5f2fbd588f60"
        )
        # And one shard in full, on 10.0.0.0/29: host .2 goes down port
        # 1, the rest of the /29 up port 3, from each of three entries.
        down = [{"dst_ip": [0x0A000002, 0xFFFFFFFF]}]
        up = [
            {"dst_ip": [0x0A000004, 0xFFFFFFFC]},
            {"dst_ip": [0x0A000003, 0xFFFFFFFF]},
            {"dst_ip": [0x0A000000, 0xFFFFFFFE]},
        ]
        edge = summaries(0xFFFFFFF8)["shard1"]
        assert edge == {
            "shard_id": "shard1",
            "filters_only": True,
            "exact": True,
            "assumption": [{"dst_ip": [0x0A000000, 0xFFFFFFF8]}],
            "images": {
                f"edge_0_0:{entry}|edge_0_0:{port}": cover
                for entry in (1, 3, 4)
                for port, cover in ((1, down), (3, up))
            },
            "stats": {
                "devices": 1,
                "entries": 3,
                "exits": 3,
                "set_ops": 6,
                "fixpoint_pops": 3,
            },
        }


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
        with pytest.raises(ValueError, match="port|malformed"):
            monolithic_verdict(topo, query)

    @pytest.mark.parametrize("port", [300, 0, True])
    def test_query_points_are_ports_too(self, port):
        query = chain_query(2)
        query["sink"] = ["d1", port]
        with pytest.raises(ValueError, match="sink"):
            plan_shards(filter_chain(2), query)

    def test_every_byte_is_a_port(self):
        topo = filter_chain(2)
        topo["devices"]["d0"]["fib"].insert(0, [[0x0B000000, 8], 255])
        topo["devices"]["d0"]["fib"].insert(0, [[0x0C000000, 8], 0])
        topo["devices"]["d0"]["acl_out"] = {
            "255": [{"action": True, "src": [0, 0], "dst": [0, 0]}]
        }
        assert run_composed(topo, chain_query(2), None).reachable is True


class TestComposedThroughService:
    """The same verdicts when shard summaries fan out across workers."""

    def test_service_fanout_matches_inprocess(self):
        from repro.service import QueryEngine

        topo = filter_chain(3)
        query = chain_query(3)
        local = run_composed(topo, query)
        engine = QueryEngine(pool_size=2, retries=1)
        try:
            remote = run_composed(topo, query, engine, timeout_s=60.0)
        finally:
            engine.close()
        assert remote.reachable == local.reachable
        assert remote.shard_count == local.shard_count

    @pytest.mark.chaos
    def test_composed_survives_worker_kill(self):
        from repro.service import QueryEngine
        from repro.service.chaos import inject_worker_fault

        topo = filter_chain(4)
        query = chain_query(4)
        expected = run_composed(topo, query).reachable
        engine = QueryEngine(pool_size=2, retries=2)
        try:
            # Workers spawn lazily: run one composed query first so
            # there are live workers to murder, then storm — a kill
            # before each subsequent composed run.
            warm = run_composed(topo, query, engine, timeout_s=120.0)
            assert warm.reachable == expected
            for _ in range(2):
                live = [p for p in engine.worker_pids() if p is not None]
                assert live, "pool must be warm before the kill"
                kind, pid = inject_worker_fault(engine, "kill")
                assert kind == "kill" and pid is not None
                result = run_composed(topo, query, engine, timeout_s=120.0)
                assert result.reachable == expected
        finally:
            engine.close()


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
                monolith_every=0,
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
