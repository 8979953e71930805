"""The driver's held fabrics.

A query without a budget is answered from its topology's held fabric:
the plan, the shard summaries (their guards nodes of the thread's one
compose context) and one network for witness replay, kept in that
context across queries by the topology's content, with the summaries
also kept by the content of their shard.  These tests pin what that may change — no verdict and
no witness — and what it must save: a query on a held topology
dispatches nothing, and a one-device edit re-dispatches one shard.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import threading

import pytest

from repro.compose import (
    compute_shard_summary,
    driver,
    plan_shards,
    run_composed,
    shard,
)
from repro.compose.shard import forget
from repro.errors import ZenBudgetExceeded, ZenComposeError
from repro.network import Trace
from repro.obs.status import render_status
from repro.telemetry.metrics import METRICS
from repro.workloads import (
    chain_query,
    chain_topology,
    fat_tree,
    fat_tree_hosts,
    fat_tree_reach_query,
)

from .test_compose import (
    blocked_fabric,
    delivers_witness,
    host_address,
    long_nat_chain,
    nat_targets,
)
from .test_obs import _sample_status


def answer(result):
    return result.reachable, result.witness


def cold(topo, query):
    """The answer of a driver that holds nothing."""
    forget()
    return answer(run_composed(topo, query, None))


class Counted:
    """Shard summaries dispatched and reused since the last `take()`."""

    NAMES = ("compose.shards_dispatched", "compose.summaries_reused")

    def __init__(self):
        self.last = self._read()

    def _read(self):
        return [METRICS.counter(name).value for name in self.NAMES]

    def take(self):
        now = self._read()
        taken = tuple(b - a for a, b in zip(self.last, now))
        self.last = now
        return taken


def held_fabrics():
    return list(shard.held().fabrics.values())


def held_summaries():
    return shard.held().summaries


class TestHeldEqualsCold:
    """Held verdicts and witnesses are the cold ones."""

    def test_every_host_pair_of_a_fat_tree(self):
        topo = blocked_fabric()  # one host refused its own traffic
        hosts = fat_tree_hosts(4)
        queries = [
            fat_tree_reach_query(source, sink)
            for source in hosts
            for sink in hosts
            if source != sink
        ]
        expected = [cold(topo, query) for query in queries]
        assert {reachable for reachable, _ in expected} == {True, False}
        forget()
        counted = Counted()
        held = [answer(run_composed(topo, query, None)) for query in queries]
        assert held == expected
        shards = len(plan_shards(topo, queries[0]).shards)
        # Planned once, for the first pair; every other pair reused it.
        assert counted.take() == (shards, shards * (len(queries) - 1))

    def test_the_sixty_nat_chains(self):
        for num_devices in range(4, 9):
            for seed in range(12):
                topo = long_nat_chain(num_devices, seed)
                query = chain_query(num_devices)
                for target in nat_targets(topo)[:3]:
                    query["target"] = target
                    expected = cold(topo, query)
                    counted = Counted()
                    again = answer(run_composed(topo, query, None))
                    assert again == expected, (num_devices, seed, target)
                    assert counted.take()[0] == 0
                    if again[0]:
                        assert delivers_witness(topo, query, again[1])

    def test_a_point_outside_the_plan_extends_one_shard(self):
        topo = chain_topology(5, seed=3, acl_probability=0.0)
        query = chain_query(5)
        run_composed(topo, query, None)
        # Port 9 of d4 is named by nothing: the sink's shard is
        # re-summarised with it, and nothing else is.
        moved = {**query, "sink": ["d4", 9]}
        shards = len(plan_shards(topo, moved).shards)
        counted = Counted()
        assert run_composed(topo, moved, None).reachable is False
        assert counted.take() == (1, shards - 1)
        # The held plan keeps the point: asking again dispatches nothing.
        assert run_composed(topo, query, None).reachable is True
        assert run_composed(topo, moved, None).reachable is False
        assert counted.take() == (0, 2 * shards)
        assert cold(topo, moved) == (False, None)


class TestOneDeviceEdit:
    def test_an_acl_edit_redispatches_one_shard(self):
        hosts = fat_tree_hosts(6)
        topo = fat_tree(6, seed=11, acl_probability=0.3)
        query = fat_tree_reach_query(hosts[3], hosts[-1])
        assert run_composed(topo, query, None).reachable
        sink = hosts[-1]
        edge = "edge_" + "_".join(sink.split("_")[1:3])
        edited = copy.deepcopy(topo)
        edited["devices"][edge]["acl_out"] = {
            "1": [
                {"action": False, "dst": [host_address(sink), 32]},
                {"action": True},
            ]
        }
        counted = Counted()
        warm = answer(run_composed(edited, query, None))
        shards = len(plan_shards(edited, query).shards)
        assert counted.take() == (1, shards - 1)
        assert warm == (False, None)
        # The unedited fabric is held beside it, and still delivers.
        assert run_composed(topo, query, None).reachable is True
        assert counted.take() == (0, shards)
        assert cold(edited, query) == warm


class TestFabricKey:
    """A fabric is found by its payload's pickled bytes: exact content,
    exact types."""

    def test_an_in_place_edit_is_a_new_fabric(self):
        hosts = fat_tree_hosts(6)
        topo = fat_tree(6, seed=11, acl_probability=0.3)
        query = fat_tree_reach_query(hosts[3], hosts[-1])
        assert run_composed(topo, query, None).reachable
        sink = hosts[-1]
        edge = "edge_" + "_".join(sink.split("_")[1:3])
        topo["devices"][edge]["acl_out"] = {
            "1": [
                {"action": False, "dst": [host_address(sink), 32]},
                {"action": True},
            ]
        }
        assert answer(run_composed(topo, query, None)) == (False, None)
        assert len(held_fabrics()) == 2
        del topo["devices"][edge]["acl_out"]
        assert run_composed(topo, query, None).reachable
        assert cold(topo, query) == answer(run_composed(topo, query, None))

    @pytest.mark.parametrize("retype", ["bool_link_port", "float_prefix_length"])
    def test_an_equal_payload_of_other_types_raises_as_cold(self, retype):
        topo = chain_topology(4, seed=7, acl_probability=0.0)
        query = chain_query(4)
        edited = copy.deepcopy(topo)
        if retype == "bool_link_port":
            edited["links"][0][3] = True  # d1's port 1
        else:
            rule = edited["devices"]["d1"]["fib"][0]
            rule[0][1] = float(rule[0][1])
        assert edited == topo  # deep == cannot tell them apart
        forget()
        with pytest.raises(ValueError) as cold_error:
            run_composed(edited, query, None)
        assert run_composed(topo, query, None).reachable is True
        with pytest.raises(ValueError) as warm_error:
            run_composed(edited, query, None)
        assert str(warm_error.value) == str(cold_error.value)
        assert len(held_fabrics()) == 1


class TestMemoRules:
    def test_a_budgeted_query_neither_reads_nor_fills_the_memo(self):
        topo = fat_tree(4, seed=5, acl_probability=0.3)
        query = fat_tree_reach_query("host_0_0_0", "host_3_1_0")
        budget = {"deadline_s": 60.0}
        counted = Counted()
        budgeted = run_composed(topo, query, None, budget=budget)
        shards = len(plan_shards(topo, query).shards)
        assert counted.take() == (shards, 0)
        assert held_fabrics() == [] and len(held_summaries()) == 0
        expected = answer(run_composed(topo, query, None))
        assert answer(budgeted) == expected
        counted.take()
        assert answer(run_composed(topo, query, None, budget=budget)) == expected
        assert counted.take() == (shards, 0)

    def test_a_budgeted_querys_node_cap_counts_its_recompose(self, monkeypatch):
        """A budgeted query runs its shards and its recompose in one
        context of its own, metered as a whole."""
        topo, query = long_nat_chain(6, 1), chain_query(6)
        held = shard.held()
        before = []
        original = driver.recompose

        def recompose(plan, summaries, bug=None):
            before.append(shard.held().context.manager.num_nodes)
            return original(plan, summaries, bug=bug)

        monkeypatch.setattr(driver, "recompose", recompose)
        run_composed(topo, query, None, budget={"max_bdd_nodes": 10**6})
        (shards,) = before  # the nodes its shards left
        with pytest.raises(ZenBudgetExceeded) as info:
            run_composed(topo, query, None, budget={"max_bdd_nodes": shards + 1})
        assert before[1] == shards and info.value.reason == "bdd_nodes"
        assert any(entry.name == "recompose" for entry in info.traceback)
        assert shard.held() is held and held_fabrics() == []

    def test_an_exception_drops_the_held_fabric(self, monkeypatch):
        topo = chain_topology(4, seed=7, acl_probability=0.0)
        query = chain_query(4)
        assert run_composed(topo, query, None).reachable is True
        assert len(held_fabrics()) == 1
        dropped = Trace((), "loop", None)
        monkeypatch.setattr(driver, "simulate", lambda *args: dropped)
        with pytest.raises(ZenComposeError, match="replay"):
            run_composed(topo, query, None)
        assert held_fabrics() == [] and len(held_summaries()) == 0
        monkeypatch.undo()
        counted = Counted()
        assert run_composed(topo, query, None).reachable is True
        assert counted.take()[0] == len(plan_shards(topo, query).shards)

    def test_a_summary_that_fails_to_import_is_not_kept(self, monkeypatch):
        """A summary the recomposer cannot read in this context (here,
        one computed in a budgeted task's context of its own) raises,
        gives no verdict, and is kept nowhere."""

        def elsewhere(task):
            return compute_shard_summary({**task, "budget": {"deadline_s": 60.0}})

        monkeypatch.setattr(driver, "compute_shard_summary", elsewhere)
        topo = chain_topology(3, seed=7, acl_probability=0.0)
        with pytest.raises(ZenComposeError, match="not nodes here"):
            run_composed(topo, chain_query(3), None)
        assert held_fabrics() == [] and len(held_summaries()) == 0

    def test_a_malformed_query_drops_it_too(self):
        topo = chain_topology(3, seed=7, acl_probability=0.0)
        run_composed(topo, chain_query(3), None)
        with pytest.raises(ValueError, match="sink"):
            run_composed(topo, {**chain_query(3), "sink": ["d9", 1]}, None)
        assert held_fabrics() == []

    def test_the_memo_stays_within_its_bounds(self, monkeypatch):
        monkeypatch.setattr(driver, "MAX_HELD_SUMMARIES", 6)  # < 2 fabrics' 10
        hosts = fat_tree_hosts(4)
        for seed in range(8):
            topo = fat_tree(4, seed=seed, acl_probability=0.3)
            for i in range(2):
                run_composed(topo, fat_tree_reach_query(hosts[i], hosts[-1 - i]), None)
            assert len(held_fabrics()) <= driver.MAX_HELD_FABRICS
            assert len(held_summaries()) <= driver.MAX_HELD_SUMMARIES
        assert len(held_fabrics()) == driver.MAX_HELD_FABRICS
        assert len(held_summaries()) == driver.MAX_HELD_SUMMARIES
        assert shard.held().context.manager.num_nodes <= shard.MAX_HELD_NODES
        # A query that leaves the context above its node bound drops it
        # whole, fabrics and summaries with it: the next query on the
        # same topology summarises every shard again.
        monkeypatch.setattr(shard, "MAX_HELD_NODES", 1)
        query = fat_tree_reach_query(hosts[0], hosts[-1])
        expected = answer(run_composed(topo, query, None))
        counted = Counted()
        assert answer(run_composed(topo, query, None)) == expected
        assert counted.take()[0] == len(plan_shards(topo, query).shards)

    def test_held_state_is_per_thread(self):
        topo = chain_topology(3, seed=7, acl_probability=0.0)
        run_composed(topo, chain_query(3), None)
        seen = []
        worker = threading.Thread(target=lambda: seen.append(held_fabrics()))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert seen == [[]] and len(held_fabrics()) == 1


def test_a_warm_query_leaves_no_cyclic_garbage():
    hosts = fat_tree_hosts(6)
    topo = fat_tree(6, seed=5, acl_probability=0.3)
    run_composed(topo, fat_tree_reach_query(hosts[0], hosts[5]), None)
    gc.collect()
    gc.disable()
    try:
        for i in range(1, 4):
            result = run_composed(topo, fat_tree_reach_query(hosts[i], hosts[-i]), None)
            assert result.reachable
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_status_line_counts_dispatched_and_reused_summaries():
    status = dataclasses.replace(
        _sample_status(),
        compose={"queries": 5.0, "shards_dispatched": 5.0, "summaries_reused": 20.0},
    )
    assert "compose: queries 5 · shards 5 · reused 20" in render_status(status)
