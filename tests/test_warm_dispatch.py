"""Tests for the warm-dispatch path (PR 5).

Covers the compiled-model cache (hits, LRU eviction, cold
respawns), sticky routing, request batching, the async front-end, and
the respawn-churn fix (benign in-worker errors must not recycle
workers).
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro import (
    Budget,
    QueryEngine,
    QuerySpec,
    ZenQueryFailed,
    ZenServiceError,
)
from repro.service import ModelCache, ref_cache_key, run_spec
from tests.service_faults import MAGIC

EQ = "tests.service_faults:eq_model"
UNSAT = "tests.service_faults:unsat_model"
CRASH = "tests.service_faults:crash_model"
ERROR = "tests.service_faults:error_model"


def make_engine(**overrides) -> QueryEngine:
    defaults = dict(
        pool_size=2,
        retries=1,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        jitter_s=0.005,
        breaker_threshold=10,
        breaker_cooldown_s=0.3,
        default_timeout_s=20.0,
    )
    defaults.update(overrides)
    return QueryEngine(**defaults)


# ---------------------------------------------------------------------------
# ModelCache unit behavior
# ---------------------------------------------------------------------------


class TestModelCache:
    def test_hit_miss_and_signature(self):
        cache = ModelCache(capacity=4)
        spec = QuerySpec(builder=EQ)
        fn1, hit1, entry1 = cache.get_function(spec)
        fn2, hit2, entry2 = cache.get_function(spec)
        assert (hit1, hit2) == (False, True)
        assert fn1 is fn2 and entry1 is entry2
        assert entry1.signature  # recorded type signature
        assert cache.hits == 1 and cache.misses == 1

    def test_backend_is_part_of_the_key(self):
        cache = ModelCache(capacity=4)
        _, hit_sat, _ = cache.get_function(QuerySpec(builder=EQ))
        _, hit_bdd, _ = cache.get_function(
            QuerySpec(builder=EQ, backend="bdd")
        )
        assert (hit_sat, hit_bdd) == (False, False)
        assert len(cache) == 2

    def test_lru_eviction_at_capacity(self):
        cache = ModelCache(capacity=1)
        cache.get_function(QuerySpec(builder=EQ))
        cache.get_function(QuerySpec(builder=UNSAT))
        assert cache.evictions == 1
        # EQ was evicted: a re-lookup misses.
        _, hit, _ = cache.get_function(QuerySpec(builder=EQ))
        assert hit is False

    def test_ref_cache_key_folds_builder_args(self):
        a = ref_cache_key(QuerySpec(builder=EQ))
        b = ref_cache_key(
            QuerySpec(
                builder="tests.service_faults:flaky_crash_model",
                builder_args=("/tmp/x",),
            )
        )
        c = ref_cache_key(
            QuerySpec(
                builder="tests.service_faults:flaky_crash_model",
                builder_args=("/tmp/y",),
            )
        )
        assert len({a, b, c}) == 3

    def test_run_spec_reports_cache_hit_in_payload(self):
        cache = ModelCache(capacity=4)
        spec = QuerySpec(builder=EQ)
        first = run_spec(spec, cache)
        second = run_spec(spec, cache)
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert second["answer"] == MAGIC

    def test_evicted_transformer_frees_its_context(self):
        cache = ModelCache(capacity=32)
        nodes, contexts = set(), []
        gc.disable()
        try:
            for key in range(100):
                spec = QuerySpec(
                    builder="tests.service_faults:xor_model",
                    builder_args=(key,),
                    kind="transformer",
                )
                answer = run_spec(spec, cache=cache)["answer"]
                nodes.add(answer["manager_nodes"])
                _, _, entry = cache.get_function(spec)
                transformer = entry.artifacts["transformer"]
                contexts.append(weakref.ref(transformer.context))
            alive = sum(ref() is not None for ref in contexts)
        finally:
            gc.enable()
        assert len(nodes) == 1
        assert alive <= 32


# ---------------------------------------------------------------------------
# Warm workers through the engine
# ---------------------------------------------------------------------------


class TestWarmWorkers:
    def test_repeat_queries_hit_the_warm_cache(self):
        with make_engine(pool_size=1) as engine:
            first = engine.run(QuerySpec(builder=EQ))
            second = engine.run(QuerySpec(builder=EQ))
        assert first.cache_hit is False
        assert second.cache_hit is True
        assert second.answer == MAGIC
        assert second.worker_pid == first.worker_pid
        stats = engine.cache_stats()
        assert stats["hit"] >= 1 and stats["miss"] >= 1
        assert 0.0 < stats["hit_rate"] < 1.0

    def test_sticky_routing_lands_same_ref_on_same_worker(self):
        import zlib

        with make_engine(pool_size=2) as engine:
            eq_runs = [engine.run(QuerySpec(builder=EQ)) for _ in range(4)]
            un_runs = [
                engine.run(QuerySpec(builder=UNSAT)) for _ in range(4)
            ]
            stats = engine.dispatch_stats()
        # Each ref lands on its one sticky worker every time (the
        # sticky worker is idle between sequential runs, so no steals).
        assert len({r.worker_pid for r in eq_runs}) == 1
        assert len({r.worker_pid for r in un_runs}) == 1
        assert stats["sticky_hits"] == 8
        assert stats["steals"] == 0
        assert sum(1 for r in eq_runs if r.cache_hit) == 3
        # When the two refs hash to different slots they really are
        # served by different processes.
        eq_slot = zlib.crc32(ref_cache_key(QuerySpec(builder=EQ)).encode()) % 2
        un_slot = (
            zlib.crc32(ref_cache_key(QuerySpec(builder=UNSAT)).encode()) % 2
        )
        if eq_slot != un_slot:
            assert eq_runs[0].worker_pid != un_runs[0].worker_pid

    def test_idle_workers_steal_from_a_busy_sticky_worker(self):
        # Work conservation holds for model-free `call` tasks: when
        # their sticky worker is saturated, the other worker takes the
        # overflow instead of idling.
        with make_engine(pool_size=2, max_batch_size=2) as engine:
            results = engine.run_many(
                [
                    QuerySpec(
                        builder="repro.service.chaos:sleep_ms",
                        kind="call",
                        args=(50,),
                        label=f"q{i}",
                    )
                    for i in range(8)
                ]
            )
            stats = engine.dispatch_stats()
        assert [r.answer for r in results] == [50] * 8
        assert stats["sticky_hits"] >= 1 and stats["steals"] >= 1
        assert stats["sticky_hits"] + stats["steals"] == 8
        assert len({r.worker_pid for r in results}) == 2

    def test_model_tasks_wait_for_their_busy_sticky_worker(self, tmp_path):
        # A blocker sticky to EQ's worker holds it while EQ queries
        # queue; the idle worker must not steal them, because only the
        # sticky worker's cache holds EQ warm.
        import time
        import zlib

        eq_slot = zlib.crc32(ref_cache_key(QuerySpec(builder=EQ)).encode()) % 2
        for i in range(64):
            release = tmp_path / f"release-{i}"
            blocker_spec = QuerySpec(
                builder="tests.service_faults:wait_for_file",
                kind="call",
                builder_args=(str(release),),
            )
            if zlib.crc32(ref_cache_key(blocker_spec).encode()) % 2 == eq_slot:
                break
        else:
            pytest.fail("no release path hashed to EQ's worker slot")
        with make_engine(pool_size=2, max_batch_size=2) as engine:
            engine.run(QuerySpec(builder=EQ))  # warm EQ where it sticks
            blocker = engine.submit(blocker_spec)
            deadline = time.monotonic() + 10.0
            while (
                engine.status().pool_busy == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            futures = [
                engine.submit(QuerySpec(builder=EQ, label=f"q{i}"))
                for i in range(4)
            ]
            # Long enough for the idle worker to steal, were it allowed.
            time.sleep(0.2)
            assert not any(f.done() for f in futures)
            release.touch()
            held = blocker.result()
            results = engine.gather(futures)
            stats = engine.dispatch_stats()
        assert held.answer is True
        assert [r.answer for r in results] == [MAGIC] * 4
        assert {r.worker_pid for r in results} == {held.worker_pid}
        assert all(r.cache_hit for r in results)
        assert stats["steals"] == 0

    def test_differential_sides_run_on_two_workers(self):
        # Both sides share one builder ref, so one sticky worker; the
        # side that finds it busy (building the slow model) is stolen.
        spec = QuerySpec(
            builder="tests.service_faults:slow_eq_model",
            builder_args=(0.3,),
        )
        with make_engine(pool_size=2) as engine:
            result = engine.run_differential(spec)
            stats = engine.dispatch_stats()
        assert result.agreed is True
        assert result.answers == {"sat": MAGIC, "bdd": MAGIC}
        pids = {
            a.worker_pid for a in result.attempts if a.outcome == "ok"
        }
        assert len(pids) == 2
        assert stats["steals"] == 1

    def test_cache_survives_a_benign_error_in_the_same_worker(self):
        with make_engine(pool_size=1) as engine:
            warm = engine.run(QuerySpec(builder=EQ))
            with pytest.raises(ZenQueryFailed):
                engine.run(QuerySpec(builder=ERROR), fallback=False)
            after = engine.run(QuerySpec(builder=EQ))
        # The error reply kept the worker (and its cache) alive.
        assert after.worker_pid == warm.worker_pid
        assert after.cache_hit is True
        assert engine.total_restarts() == 0

    def test_cache_survives_a_retry_of_another_query(self, tmp_path):
        # A crash-retry cycle respawns the crashed worker, but a
        # *different* worker's warm cache is untouched.  The flag path
        # is part of the flaky ref's cache key (builder_args), so pick
        # one whose sticky slot differs from EQ's — otherwise the
        # crash would (correctly) take the warm worker down with it.
        import zlib

        eq_slot = zlib.crc32(ref_cache_key(QuerySpec(builder=EQ)).encode()) % 2
        for i in range(64):
            flag = str(tmp_path / f"flaky-{i}.flag")
            flaky_spec = QuerySpec(
                builder="tests.service_faults:flaky_crash_model",
                builder_args=(flag,),
                timeout_s=10,
            )
            if zlib.crc32(ref_cache_key(flaky_spec).encode()) % 2 != eq_slot:
                break
        else:
            pytest.fail("no flag path hashed to the other worker slot")
        with make_engine(pool_size=2) as engine:
            warm = engine.run(QuerySpec(builder=EQ))
            flaky = engine.run(flaky_spec)
            assert flaky.retried and flaky.answer == MAGIC
            after = engine.run(QuerySpec(builder=EQ))
        assert after.cache_hit is True
        assert after.worker_pid == warm.worker_pid

    def test_respawned_worker_starts_cold_with_correct_answers(self):
        with make_engine(pool_size=1) as engine:
            warm = engine.run(QuerySpec(builder=EQ))
            again = engine.run(QuerySpec(builder=EQ))
            assert again.cache_hit is True
            with pytest.raises(ZenQueryFailed):
                engine.run(QuerySpec(builder=CRASH, timeout_s=10))
            assert engine.total_restarts() >= 1
            cold = engine.run(QuerySpec(builder=EQ))
            # Fresh process: no warm entry could survive the kill.
            assert cold.worker_pid != warm.worker_pid
            assert cold.cache_hit is False
            assert cold.answer == MAGIC

    def test_warm_answers_match_a_cold_pool_differentially(self):
        specs = [
            QuerySpec(builder=EQ),
            QuerySpec(builder=UNSAT),
            QuerySpec(builder=EQ, backend="bdd"),
        ]
        with make_engine(pool_size=1) as engine:
            engine.run_many(specs)  # warm the caches
            warm = engine.run_many(specs)
        # Differential: warm answers equal the answers of an
        # in-process run with no cache at all.
        cold = [run_spec(s, None) for s in specs]
        for w, c in zip(warm, cold):
            assert w.answer == c["answer"]
            assert w.cache_hit is True
            assert "cache_hit" not in c  # no cache consulted


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


class TestBatching:
    def test_many_specs_share_round_trips(self):
        with make_engine(pool_size=1, max_batch_size=8) as engine:
            results = engine.run_many(
                [QuerySpec(builder=EQ, label=f"b{i}") for i in range(16)]
            )
            assert [r.answer for r in results] == [MAGIC] * 16
            stats = engine.dispatch_stats()
        assert stats["batches"] < 16
        assert stats["mean_batch_size"] > 1.0
        assert max(r.batch_size for r in results) > 1

    def test_batch_order_and_poison_isolation(self):
        with make_engine(pool_size=1, max_batch_size=8) as engine:
            outcomes = engine.run_many(
                [
                    QuerySpec(builder=EQ, label="a"),
                    QuerySpec(builder=CRASH, label="poison", timeout_s=10),
                    QuerySpec(builder=UNSAT, label="c"),
                    QuerySpec(builder=EQ, label="d"),
                ]
            )
        assert outcomes[0].answer == MAGIC
        assert isinstance(outcomes[1], ZenQueryFailed)
        assert outcomes[2].answer is None
        assert outcomes[3].answer == MAGIC

    def test_max_batch_size_is_respected(self):
        with make_engine(pool_size=1, max_batch_size=3) as engine:
            results = engine.run_many(
                [QuerySpec(builder=EQ) for _ in range(9)]
            )
            assert all(r.batch_size <= 3 for r in results)

    def test_deadlines_are_per_spec_inside_a_batch(self):
        # A hang sandwiched between fast specs must only charge itself.
        with make_engine(
            pool_size=1, max_batch_size=4, retries=0
        ) as engine:
            outcomes = engine.run_many(
                [
                    QuerySpec(builder=EQ, label="fast1"),
                    QuerySpec(
                        builder="tests.service_faults:hang_model",
                        timeout_s=0.4,
                        label="hang",
                    ),
                    QuerySpec(builder=EQ, label="fast2"),
                ],
                fallback=False,
            )
        assert outcomes[0].answer == MAGIC
        assert isinstance(outcomes[1], ZenQueryFailed)
        assert any(
            a.outcome == "timeout" for a in outcomes[1].attempts
        )
        assert outcomes[2].answer == MAGIC


# ---------------------------------------------------------------------------
# Respawn churn: benign errors never recycle workers
# ---------------------------------------------------------------------------


class TestRespawnChurn:
    def test_benign_errors_do_not_respawn_workers(self):
        with make_engine(pool_size=1) as engine:
            for _ in range(3):
                with pytest.raises(ZenQueryFailed):
                    engine.run(QuerySpec(builder=ERROR), fallback=False)
            assert engine.total_restarts() == 0
            assert engine.run(QuerySpec(builder=EQ)).answer == MAGIC
            assert engine.total_restarts() == 0

    def test_budget_exhaustion_does_not_respawn_workers(self):
        with make_engine(pool_size=1) as engine:
            with pytest.raises(ZenQueryFailed):
                engine.run(
                    QuerySpec(builder=EQ, budget=Budget(deadline_s=0.0)),
                    fallback=False,
                )
            assert engine.total_restarts() == 0

    def test_crash_loop_suppression_stops_burning_workers(self):
        with make_engine(
            pool_size=1, retries=2, crash_loop_threshold=2
        ) as engine:
            with pytest.raises(ZenQueryFailed) as info:
                engine.run(
                    QuerySpec(builder=CRASH, timeout_s=10), fallback=False
                )
            outcomes = [a.outcome for a in info.value.attempts]
            assert outcomes == ["crash", "crash", "crash_loop"]
            # Only the two real crashes consumed workers.
            assert engine.total_restarts() <= 2
            # A different builder is unaffected.
            assert engine.run(QuerySpec(builder=EQ)).answer == MAGIC

    def test_crash_loop_threshold_zero_disables_suppression(self):
        with make_engine(
            pool_size=1, retries=1, crash_loop_threshold=0
        ) as engine:
            with pytest.raises(ZenQueryFailed) as info:
                engine.run(QuerySpec(builder=CRASH, timeout_s=10))
            outcomes = [a.outcome for a in info.value.attempts]
            assert outcomes == ["crash"] * 4


# ---------------------------------------------------------------------------
# Async front-end
# ---------------------------------------------------------------------------


class TestAsyncFrontEnd:
    def test_submit_and_gather(self):
        with make_engine(pool_size=2) as engine:
            futures = [
                engine.submit(QuerySpec(builder=EQ, label=f"s{i}"))
                for i in range(4)
            ]
            results = engine.gather(futures)
        assert [r.answer for r in results] == [MAGIC] * 4
        assert [r.label for r in results] == ["s0", "s1", "s2", "s3"]

    def test_gather_returns_structured_errors_in_place(self):
        with make_engine(pool_size=2) as engine:
            futures = [
                engine.submit(QuerySpec(builder=EQ)),
                engine.submit(
                    QuerySpec(builder=CRASH, timeout_s=10), fallback=False
                ),
            ]
            results = engine.gather(futures)
        assert results[0].answer == MAGIC
        assert isinstance(results[1], ZenQueryFailed)

    def test_event_loop_awaits_wrapped_futures(self):
        async def go(engine):
            return await asyncio.gather(
                asyncio.wrap_future(
                    engine.submit(QuerySpec(builder=EQ, label="a"))
                ),
                asyncio.wrap_future(
                    engine.submit(
                        QuerySpec(builder=CRASH, label="poison", timeout_s=10),
                        fallback=False,
                    )
                ),
                asyncio.wrap_future(
                    engine.submit(QuerySpec(builder=UNSAT, label="c"))
                ),
                return_exceptions=True,
            )

        with make_engine(pool_size=2) as engine:
            outcomes = asyncio.run(go(engine))
        assert outcomes[0].answer == MAGIC
        assert outcomes[0].label == "a"
        assert isinstance(outcomes[1], ZenQueryFailed)
        assert outcomes[2].answer is None
        assert outcomes[2].label == "c"

    def test_submit_after_close_refuses(self):
        engine = make_engine()
        engine.close()
        with pytest.raises(ZenServiceError):
            engine.submit(QuerySpec(builder=EQ))
