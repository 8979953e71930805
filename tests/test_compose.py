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

import json

import pytest

from repro.compose import (
    CANARY_DROP_ASSUMPTION,
    monolithic_verdict,
    plan_shards,
    run_composed,
    simulate,
)
from repro.errors import ZenComposeError, ZenServiceError, ZenTypeError
from repro.fuzz import FarmConfig, replay_artifact, run_farm
from repro.workloads import chain_query, chain_topology


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
