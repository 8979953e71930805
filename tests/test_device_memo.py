"""The shard worker's held device models.

A task without a budget runs on its thread's held model: one
`TransformerContext` and a memo from a device's configuration to its
hop sets, kept across tasks.  These tests pin what that may change —
nothing in a summary, and nothing in a verdict — and what it must
save: a device met before opens no evaluator session.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import threading

import pytest

from repro.backends import bitvector
from repro.compose import compute_shard_summary, plan_shards, run_composed, shard
from repro.compose.shard import forget_devices
from repro.fuzz.oracle import hsa_delivered
from repro.telemetry.spans import TRACER, enable_tracing
from repro.workloads import (
    chain_query,
    chain_topology,
    fat_tree,
    fat_tree_hosts,
    fat_tree_reach_query,
)

from .test_compose import (
    _Counts,
    blocked_fabric,
    host_address,
    payload,
    pinned_fabric,
)

#: The digests `test_compose.py` pins for the same two corpora.
CORPUS_DIGEST = "cd21c60a60253f414899f1270062874c41dc8cc2aa36d301d0f36ab303f0de1c"
FABRIC_DIGEST = "caaf66ac960770f58cfd493d13f8c1f8e3aa2364e5083082a7e56d584f1d0f17"


def digest(summaries) -> str:
    blob = json.dumps(summaries, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def summarise(task):
    """A shard summary without its wall-clock stat."""
    summary = compute_shard_summary(task)
    assert summary["stats"].pop("elapsed_ms") >= 0.0
    return summary


def corpus_summaries():
    """The 111 summaries of `test_shard_summaries_match_the_pinned_digest`."""
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
    return [
        summarise(task)
        for topo, query in corpus
        for task in plan_shards(topo, query).shards
    ]


def fabric_summaries():
    """The seven summaries of `test_pinned_fat_tree_summaries`' 10/8 query."""
    topo, query = pinned_fabric(0xFF000000)
    return {
        task["shard_id"]: summarise(task)
        for task in plan_shards(topo, query).shards
    }


def held():
    """This thread's held model, or None."""
    return getattr(shard._held, "model", None)


def recorded_contexts(monkeypatch):
    """Every context the shard worker creates from here on."""
    contexts = []

    class Recorded(shard.TransformerContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(shard, "TransformerContext", Recorded)
    return contexts


def planned_payloads(topo, query):
    return {
        payload(spec)
        for task in plan_shards(topo, query).shards
        for spec in task["devices"].values()
    }


class TestWarmEqualsCold:
    """Byte for byte, whatever the memo holds."""

    @pytest.mark.parametrize(
        "corpus, pinned",
        [(corpus_summaries, CORPUS_DIGEST), (fabric_summaries, FABRIC_DIGEST)],
        ids=["corpus", "fabric"],
    )
    def test_a_warm_run_gives_the_pinned_digest_and_opens_no_session(
        self, monkeypatch, corpus, pinned
    ):
        forget_devices()
        counts = _Counts(monkeypatch)
        assert digest(corpus()) == pinned
        sessions, _ = counts.take()
        assert sessions > 0
        assert digest(corpus()) == pinned
        assert counts.take() == (0, 0)


class TestShardSpan:
    def test_the_span_counts_devices_compiled_and_reused(self):
        topo, query = pinned_fabric(0xFF000000)
        tasks = plan_shards(topo, query).shards
        forget_devices()
        TRACER.hard_reset()
        enable_tracing()
        try:
            for _ in range(2):
                for task in tasks:
                    summary = compute_shard_summary(task)
                    assert "devices_compiled" not in summary["stats"]
            spans = [
                s.attrs
                for root in TRACER.finished_roots()
                for s in root.walk()
                if s.name == "compose.shard"
            ]
        finally:
            TRACER.hard_reset()
        cold, warm = spans[: len(tasks)], spans[len(tasks) :]
        configurations = planned_payloads(topo, query)
        assert sum(a["devices_compiled"] for a in cold) == len(configurations)
        assert sum(a["devices_compiled"] for a in warm) == 0
        for attrs, task in zip(warm, tasks):
            assert attrs["devices_reused"] == len(task["devices"])


class TestOneDeviceEdit:
    """Re-check only what changed, at device granularity."""

    def test_an_edited_acl_recompiles_one_device(self, monkeypatch):
        hosts = fat_tree_hosts(6)
        topo = fat_tree(6, seed=11, acl_probability=0.3)
        forget_devices()
        seen = set()
        for i in range(3):
            query = fat_tree_reach_query(hosts[i], hosts[-1 - i])
            assert run_composed(topo, query, None).reachable
            seen |= planned_payloads(topo, query)
        # The sink's edge switch stops handing the sink its own traffic.
        sink = hosts[-1]
        edge = "edge_" + "_".join(sink.split("_")[1:3])
        edited = copy.deepcopy(topo)
        edited["devices"][edge]["acl_out"] = {
            "1": [
                {"action": False, "dst": [host_address(sink), 32]},
                {"action": True},
            ]
        }
        query = fat_tree_reach_query(hosts[3], sink)
        never_seen = planned_payloads(edited, query) - seen
        assert payload(edited["devices"][edge]) in never_seen
        counts = _Counts(monkeypatch)
        warm = run_composed(edited, query, None)
        sessions, _ = counts.take()
        assert sessions == len(never_seen)
        seen |= never_seen
        # The unedited fabric still delivers, from the memo alone.
        assert run_composed(topo, query, None).reachable is True
        assert counts.take()[0] == len(planned_payloads(topo, query) - seen)
        forget_devices()
        cold = run_composed(edited, query, None)
        assert (warm.reachable, warm.witness) == (cold.reachable, cold.witness)
        assert warm.reachable is False
        delivers = hsa_delivered(edited, tuple(query["source"]))
        assert delivers(tuple(query["sink"]), query["headers"]) is warm.reachable


class TestBoundsErrorsThreads:
    def test_a_low_node_ceiling_drops_the_context(self, monkeypatch):
        forget_devices()
        cold = fabric_summaries()
        tasks = plan_shards(*pinned_fabric(0xFF000000)).shards
        contexts = recorded_contexts(monkeypatch)
        for task in tasks:
            summarise(task)
        assert contexts == []  # warm: no task needed a context of its own
        monkeypatch.setattr(shard, "MAX_HELD_NODES", 1)
        for task in tasks:
            assert summarise(task) == cold[task["shard_id"]]
            assert held() is None
        # Past the ceiling after every task: each ran on a context of its own.
        assert len(contexts) == len(tasks) - 1

    def test_a_low_device_count_drops_the_memo(self, monkeypatch):
        forget_devices()
        cold = fabric_summaries()
        tasks = plan_shards(*pinned_fabric(0xFF000000)).shards
        forget_devices()
        contexts = recorded_contexts(monkeypatch)
        monkeypatch.setattr(shard, "MAX_HELD_DEVICES", 2)
        sizes = []
        for task in tasks:
            assert summarise(task) == cold[task["shard_id"]]
            sizes.append(0 if held() is None else held().builds)
        assert max(sizes) <= 2 and 0 in sizes and sizes != [0] * len(tasks)
        assert 1 < len(contexts) < len(tasks)

    def test_an_error_mid_build_drops_the_held_model(self, monkeypatch):
        forget_devices()
        cold = fabric_summaries()
        tasks = plan_shards(*pinned_fabric(0xFF000000)).shards
        forget_devices()
        original = bitvector.equal_const
        calls = itertools.count()

        def flaky(*args, **kwargs):
            if next(calls) == 30:
                raise RuntimeError("injected mid-build")
            return original(*args, **kwargs)

        monkeypatch.setattr(bitvector, "equal_const", flaky)
        done = []
        with pytest.raises(RuntimeError, match="injected") as info:
            for task in tasks:
                done.append(summarise(task)["shard_id"])
        assert any(entry.name == "from_predicates" for entry in info.traceback)
        assert done and len(done) < len(tasks)
        assert held() is None
        monkeypatch.setattr(bitvector, "equal_const", original)
        for task in tasks[len(done) :]:
            assert summarise(task) == cold[task["shard_id"]]

    def test_a_malformed_task_drops_the_held_model_too(self):
        summarise(plan_shards(*pinned_fabric(0xFF000000)).shards[0])
        assert held() is not None
        task = {"shard_id": "bad", "devices": {}, "entries": [["gone", 1]]}
        with pytest.raises(KeyError, match="gone"):
            compute_shard_summary(task)
        assert held() is None

    def test_a_budgeted_task_builds_apart_from_the_held_model(
        self, monkeypatch
    ):
        forget_devices()
        cold = fabric_summaries()
        model, builds = held(), held().builds
        tasks = plan_shards(*pinned_fabric(0xFF000000)).shards
        contexts = recorded_contexts(monkeypatch)
        for task in tasks:
            budgeted = {**task, "budget": {"deadline_s": 60.0}}
            assert summarise(budgeted) == cold[task["shard_id"]]
        # A context of its own per task; the held model is not touched.
        assert len(contexts) == len(tasks)
        assert held() is model and model.builds == builds

    def test_two_threads_give_the_sequential_verdicts(self):
        topo = blocked_fabric()
        source, *sinks = fat_tree_hosts(4)
        queries = [fat_tree_reach_query(source, sink) for sink in sinks]

        def verdict(query):
            result = run_composed(topo, query, None)
            return result.reachable, result.witness

        forget_devices()
        expected = [verdict(query) for query in queries]
        assert [reachable for reachable, _ in expected].count(False) == 1
        barrier = threading.Barrier(2)
        answers, models, errors = {}, {}, []

        def work(tag, order):
            try:
                barrier.wait()
                for _ in range(2):
                    for i in order:
                        answers[(tag, i)] = verdict(queries[i])
                models[tag] = held()
            except BaseException as error:  # surfaced below
                errors.append(error)

        order = list(range(len(queries)))
        threads = [
            threading.Thread(target=work, args=("up", order)),
            threading.Thread(target=work, args=("down", order[::-1])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for tag in ("up", "down"):
            assert [answers[(tag, i)] for i in order] == expected
        # One held model per thread, neither of them this thread's.
        assert len({id(held()), id(models["up"]), id(models["down"])}) == 3
