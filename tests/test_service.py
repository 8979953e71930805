"""Tests for the fault-isolated parallel query engine (repro.service).

The acceptance bar: a deliberately crashing, hanging, or OOMing worker
never kills or wedges the parent — the engine returns structured
failures after its retry budget, breakers open/half-open as specified,
and the differential oracle returns a validated answer from a
surviving backend.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro import (
    Budget,
    InputSuite,
    QueryEngine,
    QuerySpec,
    ServiceResult,
    UInt,
    ZenBackendDisagreement,
    ZenBudgetExceeded,
    ZenCircuitOpen,
    ZenFunction,
    ZenQueryFailed,
    ZenTypeError,
    solve_with_fallback,
)
from repro.core import TransformerContext
from repro.core.budget import RungFailure
from repro.service import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, run_spec
from tests.service_faults import MAGIC

EQ = "tests.service_faults:eq_model"
UNSAT = "tests.service_faults:unsat_model"
CRASH = "tests.service_faults:crash_model"
HANG = "tests.service_faults:hang_model"
OOM = "tests.service_faults:oom_model"

MB = 1024 * 1024


def make_engine(**overrides) -> QueryEngine:
    defaults = dict(
        pool_size=2,
        retries=1,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        jitter_s=0.005,
        breaker_threshold=10,  # high: most tests exercise retries, not trips
        breaker_cooldown_s=0.3,
        default_timeout_s=20.0,
    )
    defaults.update(overrides)
    return QueryEngine(**defaults)


@pytest.fixture
def engine():
    with make_engine() as eng:
        yield eng


# ---------------------------------------------------------------------------
# QuerySpec and in-process execution
# ---------------------------------------------------------------------------


class TestQuerySpec:
    def test_specs_are_picklable(self):
        spec = QuerySpec(
            builder=EQ,
            predicate="tests.service_faults:is_even",
            budget=Budget(deadline_s=5.0),
            rss_limit_bytes=64 * MB,
            timeout_s=3.0,
            label="roundtrip",
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_rejects_backend_instances_and_bad_kinds(self):
        with pytest.raises(ZenTypeError):
            QuerySpec(builder=EQ, backend="z3")
        with pytest.raises(ZenTypeError):
            QuerySpec(builder=EQ, kind="minimize")
        with pytest.raises(ZenTypeError):
            QuerySpec(builder=EQ, timeout_s=0)
        with pytest.raises(ZenTypeError):
            QuerySpec(builder=EQ, budget=Budget(deadline_s=1.0).start())

    def test_with_backend(self):
        spec = QuerySpec(builder=EQ, backend="sat")
        assert spec.with_backend("sat") is spec
        assert spec.with_backend("bdd").backend == "bdd"

    def test_run_spec_in_process(self):
        payload = run_spec(QuerySpec(builder=EQ, budget=Budget(deadline_s=30)))
        assert payload["answer"] == MAGIC
        assert payload["function"] == "eq-magic"
        assert payload["stats"]["elapsed_s"] >= 0

    def test_run_spec_kinds(self):
        assert (
            run_spec(QuerySpec(builder=EQ, kind="evaluate", args=(MAGIC,)))[
                "answer"
            ]
            is True
        )
        suite = run_spec(
            QuerySpec(
                builder="tests.service_faults:parity_model",
                kind="generate_inputs",
            )
        )["answer"]
        assert isinstance(suite, InputSuite) and len(suite) >= 1
        summary = run_spec(QuerySpec(builder=EQ, kind="transformer"))["answer"]
        assert summary["built"] is True
        assert run_spec(
            QuerySpec(
                builder="tests.service_faults:add_numbers",
                kind="call",
                args=(2, 3),
            )
        )["answer"] == 5

    def test_zen_function_pickling_points_at_specs(self):
        f = ZenFunction(lambda x: x == 1, [UInt])
        with pytest.raises(ZenTypeError, match="QuerySpec"):
            pickle.dumps(f)

    def test_from_ref_resolves_builders_and_plain_functions(self):
        fn = ZenFunction.from_ref(EQ)
        assert fn.find() == MAGIC
        with pytest.raises(ZenTypeError):
            ZenFunction.from_ref("tests.service_faults")  # no attribute
        with pytest.raises(ZenTypeError):
            ZenFunction.from_ref("no.such.module:thing")

    def test_from_ref_and_resolve_ref_are_one_walk(self):
        from repro.service.spec import resolve_ref

        assert resolve_ref(EQ)().find() == ZenFunction.from_ref(EQ).find()
        for bad in (
            "tests.service_faults",
            "no.such.module:thing",
            "tests.service_faults:eq_model.nope",
        ):
            with pytest.raises(ZenTypeError) as direct:
                resolve_ref(bad)
            with pytest.raises(ZenTypeError) as wrapped:
                ZenFunction.from_ref(bad)
            assert str(direct.value) == str(wrapped.value)

    def test_input_suite_survives_pickling(self):
        suite = InputSuite([1, 2], truncated=True, goals_explored=3,
                           goals_total=9)
        clone = pickle.loads(pickle.dumps(suite))
        assert list(clone) == [1, 2]
        assert clone.truncated is True
        assert clone.goals_explored == 3
        assert clone.goals_total == 9


# ---------------------------------------------------------------------------
# Circuit breaker state machine (deterministic clock)
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=3, cooldown_s=5.0, clock=clock)
        b.record_failure("crash")
        b.record_failure("crash")
        assert b.state == CLOSED and b.allow()
        b.record_failure("timeout")
        assert b.state == OPEN
        assert not b.allow()
        assert b.trips == 1 and b.shed == 1

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == CLOSED

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        b.record_failure("crash")
        assert b.state == OPEN
        clock.now += 5.1
        assert b.state == HALF_OPEN and b.allow()
        b.record_success()
        assert b.state == CLOSED
        states = [(t.from_state, t.to_state) for t in b.transitions]
        assert states == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_half_open_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        b.record_failure()
        clock.now += 5.1
        assert b.state == HALF_OPEN
        b.record_failure("still broken")
        assert b.state == OPEN and b.trips == 2
        clock.now += 4.9
        assert not b.allow()  # cooldown restarted at the re-trip
        clock.now += 0.2
        assert b.allow()

    def test_snapshot_is_picklable(self):
        b = CircuitBreaker(failure_threshold=1, clock=FakeClock(), name="sat")
        b.record_failure("boom")
        snap = pickle.loads(pickle.dumps(b.snapshot()))
        assert snap["state"] == OPEN and snap["trips"] == 1

    def test_validates_configuration(self):
        with pytest.raises(ZenTypeError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ZenTypeError):
            CircuitBreaker(cooldown_s=-1)


# ---------------------------------------------------------------------------
# Engine basics: queries really run in isolated subprocess workers
# ---------------------------------------------------------------------------


class TestEngineBasics:
    def test_find_runs_in_a_subprocess(self, engine):
        result = engine.run(QuerySpec(builder=EQ, label="basic"))
        assert result.answer == MAGIC
        assert result.backend == "sat"
        assert result.label == "basic"
        assert result.worker_pid not in (None, os.getpid())
        assert [a.outcome for a in result.attempts] == ["ok"]
        assert result.attempts[0].worker_pid == result.worker_pid
        assert not result.retried

    def test_verify_and_unsat_answers(self, engine):
        verified = engine.run(
            QuerySpec(
                builder=EQ,
                kind="verify",
                predicate="tests.service_faults:always_true",
            )
        )
        assert verified.answer is None  # invariant holds
        unsat = engine.run(QuerySpec(builder=UNSAT))
        assert unsat.answer is None

    def test_generate_inputs_ships_suite_across_boundary(self, engine):
        result = engine.run(
            QuerySpec(
                builder="tests.service_faults:parity_model",
                kind="generate_inputs",
                max_inputs=8,
            )
        )
        assert isinstance(result.answer, InputSuite)
        assert len(result.answer) >= 1
        assert result.answer.goals_total >= 1

    def test_run_many_keeps_order_and_isolates_poison(self, engine):
        outcomes = engine.run_many(
            [
                QuerySpec(builder=EQ, label="a"),
                QuerySpec(builder=CRASH, label="poison", timeout_s=10),
                QuerySpec(builder=UNSAT, label="c"),
            ]
        )
        assert outcomes[0].answer == MAGIC
        assert isinstance(outcomes[1], ZenQueryFailed)
        assert outcomes[2].answer is None

    def test_budget_exhaustion_is_structured_not_retried(self, engine):
        with pytest.raises(ZenQueryFailed) as info:
            engine.run(
                QuerySpec(builder=EQ, budget=Budget(deadline_s=0.0)),
                fallback=False,
            )
        (attempt,) = info.value.attempts
        assert attempt.outcome == "budget_exceeded"
        assert attempt.error_type == "ZenBudgetExceeded"

    def test_config_errors_fail_fast_without_ladder(self, engine):
        with pytest.raises(ZenQueryFailed, match="misconfigured"):
            engine.run(
                QuerySpec(builder=EQ, kind="verify")  # verify needs predicate
            )

    def test_unpicklable_answer_degrades_to_structured_error(self, engine):
        with pytest.raises(ZenQueryFailed) as info:
            engine.run(
                QuerySpec(
                    builder="tests.service_faults:unpicklable_answer",
                    kind="call",
                ),
                fallback=False,
            )
        assert "pickle" in str(info.value.attempts[-1].error)

    def test_unpicklable_error_reply_keeps_exception_identity(self, engine):
        """A worker exception whose reply fails to pickle must degrade
        to a structured error that still names the *original* failure,
        and the worker must survive to answer the next query."""
        with pytest.raises(ZenQueryFailed) as info:
            engine.run(
                QuerySpec(
                    builder="tests.service_faults:unpicklable_error_model"
                ),
                fallback=False,
            )
        attempt = info.value.attempts[-1]
        assert attempt.outcome == "error"
        assert attempt.error_type == "ValueError"
        assert "deliberate failure carrying unpicklable state" in attempt.error
        assert "failed to pickle" in attempt.error
        # The pipe stayed clean and the worker process survived.
        assert engine.total_restarts() == 0
        follow_up = engine.run(QuerySpec(builder=EQ), fallback=False)
        assert follow_up.answer == MAGIC

    def test_closed_engine_refuses_work(self):
        eng = make_engine()
        eng.close()
        from repro import ZenServiceError

        with pytest.raises(ZenServiceError):
            eng.run(QuerySpec(builder=EQ))


# ---------------------------------------------------------------------------
# Fault injection at the process boundary
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_crashing_worker_is_isolated_and_respawned(self, engine):
        with pytest.raises(ZenQueryFailed) as info:
            engine.run(QuerySpec(builder=CRASH, timeout_s=10))
        attempts = info.value.attempts
        # retries=1 → two attempts per rung; the third worker death
        # trips crash-loop suppression, so the final rung attempt is
        # refused without burning a fourth worker.
        assert [a.outcome for a in attempts] == [
            "crash",
            "crash",
            "crash",
            "crash_loop",
        ]
        crashes = attempts[:3]
        assert all(a.error_type == "ZenWorkerCrash" for a in crashes)
        assert all("status 42" in a.error for a in crashes)
        assert attempts[-1].error_type == "ZenCrashLoop"
        assert attempts[0].backoff_s > 0  # backoff before the retry
        assert engine.total_restarts() >= 1
        # The parent survived and the pool still serves queries.
        assert engine.run(QuerySpec(builder=EQ)).answer == MAGIC

    def test_hanging_worker_is_killed_at_the_hard_deadline(self, engine):
        with pytest.raises(ZenQueryFailed) as info:
            engine.run(
                QuerySpec(builder=HANG, timeout_s=0.4), fallback=False
            )
        attempts = info.value.attempts
        assert [a.outcome for a in attempts] == ["timeout", "timeout"]
        assert all(a.error_type == "ZenQueryTimeout" for a in attempts)
        assert all("killed" in a.error for a in attempts)
        assert engine.run(QuerySpec(builder=EQ)).answer == MAGIC

    def test_oom_worker_surfaces_structured_error_and_is_recycled(self, engine):
        before = set(engine.worker_pids())
        with pytest.raises(ZenQueryFailed) as info:
            engine.run(
                QuerySpec(
                    builder=OOM,
                    rss_limit_bytes=96 * MB,
                    timeout_s=30,
                ),
                fallback=False,
            )
        attempts = info.value.attempts
        assert [a.outcome for a in attempts] == ["oom", "oom"]
        assert all(a.error_type == "MemoryError" for a in attempts)
        follow_up = engine.run(QuerySpec(builder=EQ))
        assert follow_up.answer == MAGIC
        # OOM workers are recycled even though they replied: the pid
        # serving the follow-up is a fresh one.
        assert follow_up.worker_pid not in before

    def test_retry_with_backoff_recovers_a_flaky_worker(self, tmp_path):
        flag = str(tmp_path / "flaky.flag")
        with make_engine() as engine:
            result = engine.run(
                QuerySpec(
                    builder="tests.service_faults:flaky_crash_model",
                    builder_args=(flag,),
                    timeout_s=10,
                )
            )
        assert result.answer == MAGIC
        assert result.retried
        outcomes = [a.outcome for a in result.attempts]
        assert outcomes == ["crash", "ok"]
        assert result.attempts[0].backoff_s > 0
        assert result.attempts[0].worker_pid != result.attempts[1].worker_pid

    def test_rss_cap_does_not_leak_into_later_queries(self, engine):
        with pytest.raises(ZenQueryFailed):
            engine.run(
                QuerySpec(builder=OOM, rss_limit_bytes=96 * MB, timeout_s=30),
                fallback=False,
            )
        # A follow-up without a cap may allocate freely again.
        big = engine.run(
            QuerySpec(
                builder="tests.service_faults:add_numbers",
                kind="call",
                args=(1, 2),
            )
        )
        assert big.answer == 3


# ---------------------------------------------------------------------------
# Circuit breakers at the engine level
# ---------------------------------------------------------------------------


class TestEngineBreakers:
    def test_breaker_opens_after_threshold_and_sheds(self):
        with make_engine(retries=0, breaker_threshold=2) as engine:
            for _ in range(2):
                with pytest.raises(ZenQueryFailed):
                    engine.run(
                        QuerySpec(builder=CRASH, timeout_s=10), fallback=False
                    )
            assert engine.breakers["sat"].state == OPEN
            # Shed from sat onto the bdd rung of the ladder.
            result = engine.run(QuerySpec(builder=EQ))
            assert result.backend == "bdd"
            assert result.answer == MAGIC
            assert result.attempts[0].outcome == "shed"
            assert result.attempts[0].breaker_state == OPEN

    def test_all_breakers_open_raises_circuit_open(self):
        with make_engine(retries=0, breaker_threshold=1) as engine:
            with pytest.raises(ZenQueryFailed):
                engine.run(QuerySpec(builder=CRASH, timeout_s=10))
            assert engine.breakers["sat"].state == OPEN
            assert engine.breakers["bdd"].state == OPEN
            with pytest.raises(ZenCircuitOpen) as info:
                engine.run(QuerySpec(builder=EQ))
            assert [a.outcome for a in info.value.attempts] == ["shed", "shed"]

    def test_breaker_half_opens_after_cooldown_and_recovers(self):
        import time

        with make_engine(
            retries=0, breaker_threshold=1, breaker_cooldown_s=0.25
        ) as engine:
            with pytest.raises(ZenQueryFailed):
                engine.run(
                    QuerySpec(builder=CRASH, timeout_s=10), fallback=False
                )
            breaker = engine.breakers["sat"]
            assert breaker.state == OPEN
            time.sleep(0.3)
            assert breaker.state == HALF_OPEN
            result = engine.run(QuerySpec(builder=EQ), fallback=False)
            assert result.answer == MAGIC
            assert breaker.state == CLOSED
            moves = [(t.from_state, t.to_state) for t in breaker.transitions]
            assert moves == [
                (CLOSED, OPEN),
                (OPEN, HALF_OPEN),
                (HALF_OPEN, CLOSED),
            ]

    def test_breaker_snapshots_are_exposed(self, engine):
        engine.run(QuerySpec(builder=EQ))
        snaps = engine.breaker_snapshots()
        assert snaps["sat"]["state"] == CLOSED
        assert snaps["sat"]["trips"] == 0


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------


class TestDifferentialOracle:
    def test_agreement_on_sat_query(self, engine):
        result = engine.run_differential(QuerySpec(builder=EQ))
        assert result.answer == MAGIC
        assert result.agreed is True
        assert result.answers == {"sat": MAGIC, "bdd": MAGIC}

    def test_agreement_on_unsat_query(self, engine):
        result = engine.run_differential(QuerySpec(builder=UNSAT))
        assert result.answer is None
        assert result.agreed is True
        assert result.answers == {"sat": None, "bdd": None}

    def test_disagreement_raises_structured_error(self, engine):
        # Semantically inequivalent sides stand in for an encoding bug:
        # the oracle must notice sat-found vs bdd-proved-unsat.
        with pytest.raises(ZenBackendDisagreement) as info:
            engine.run_differential(
                {
                    "sat": QuerySpec(builder=EQ),
                    "bdd": QuerySpec(builder=UNSAT),
                }
            )
        assert info.value.answers["sat"] == MAGIC
        assert info.value.answers["bdd"] is None
        assert any(a.outcome == "ok" for a in info.value.attempts)

    def test_disagreement_carries_per_backend_context(self, engine):
        # A disagreement report is only actionable with each side's
        # full attempt history and query profile attached.
        from repro.telemetry import TRACER, enable_tracing

        TRACER.hard_reset()
        enable_tracing()
        try:
            with pytest.raises(ZenBackendDisagreement) as info:
                engine.run_differential(
                    {
                        "sat": QuerySpec(builder=EQ, trace=True),
                        "bdd": QuerySpec(builder=UNSAT, trace=True),
                    },
                )
        finally:
            TRACER.hard_reset()
        by_backend = info.value.attempts_by_backend
        assert set(by_backend) == {"sat", "bdd"}
        for backend, attempts in by_backend.items():
            assert attempts, backend
            assert all(a.backend == backend for a in attempts)
            assert attempts[-1].outcome == "ok"
        profiles = info.value.profiles
        assert set(profiles) == {"sat", "bdd"}
        for backend, profile in profiles.items():
            assert profile.backend == backend
            assert profile.total_s >= 0.0

    def test_surviving_backend_answers_when_the_other_crashes(self, engine):
        result = engine.run_differential(
            {
                "sat": QuerySpec(builder=CRASH, timeout_s=10),
                "bdd": QuerySpec(builder=EQ),
            }
        )
        assert result.answer == MAGIC
        assert result.backend == "bdd"
        assert result.agreed is None  # nothing to cross-check against
        assert any(a.outcome == "crash" for a in result.attempts)

    def test_both_sides_failing_raises_query_failed(self, engine):
        with pytest.raises(ZenQueryFailed):
            engine.run_differential(QuerySpec(builder=CRASH, timeout_s=10))

    def test_rejects_non_query_kinds(self, engine):
        with pytest.raises(ZenTypeError):
            engine.run_differential(
                QuerySpec(builder=EQ, kind="generate_inputs")
            )


# ---------------------------------------------------------------------------
# Satellites: structured fallback failures, analyses budgets
# ---------------------------------------------------------------------------


class TestFallbackFailureRecords:
    def test_rung_failures_carry_type_and_message(self):
        g = ZenFunction(lambda a, b: a * b == 1517, [UInt, UInt])
        result = solve_with_fallback(
            g,
            backends=("bdd", "sat"),
            budget=Budget(deadline_s=5.0, max_bdd_nodes=20_000),
        )
        assert result.backend == "sat"
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert isinstance(failure, RungFailure)
        assert failure.backend == "bdd"
        assert failure.error_type == "ZenBudgetExceeded"
        assert failure.reason == "bdd_nodes"
        assert "bdd_nodes" in failure.message
        # The human-readable record now names the exception too.
        assert "ZenBudgetExceeded" in result.degradations[0]

    def test_exhausted_ladder_attaches_failures(self):
        g = ZenFunction(lambda x: x * 3 == 21, [UInt])
        with pytest.raises(ZenBudgetExceeded) as info:
            solve_with_fallback(
                g, backends=("sat", "bdd"), budget=Budget(deadline_s=0.0)
            )
        assert len(info.value.failures) == 2
        assert {f.backend for f in info.value.failures} == {"sat", "bdd"}
        assert all(
            f.error_type == "ZenBudgetExceeded" for f in info.value.failures
        )


class TestAnalysesBudgets:
    def test_anteater_respects_budget(self):
        from repro.analyses import find_reachable_packet
        from repro.network import Network

        net = Network()
        a = net.add_device("a", [("10.0.0.0/8", 2)])
        b = net.add_device("b", [("10.0.0.0/8", 2)])
        a1 = net.add_interface(a, 1)
        a2 = net.add_interface(a, 2)
        b1 = net.add_interface(b, 1)
        net.add_interface(b, 2)
        net.link(a2, b1)
        with pytest.raises(ZenBudgetExceeded):
            find_reachable_packet(net, a, b, budget=Budget(deadline_s=0.0))

    def test_hsa_respects_budget(self):
        from repro.analyses import reachable_sets
        from repro.network import Network

        net = Network()
        a = net.add_device("a", [("10.0.0.0/8", 1)])
        a1 = net.add_interface(a, 1)
        ctx = TransformerContext(max_list_length=1)
        with pytest.raises(ZenBudgetExceeded):
            reachable_sets(
                net, a1, context=ctx, budget=Budget(deadline_s=0.0)
            )

    def test_atomic_predicates_respect_budget(self):
        from repro.analyses import atomic_predicates

        ctx = TransformerContext(max_list_length=1)
        preds = [
            ZenFunction(lambda x: x < 10, [UInt], name="small"),
            ZenFunction(lambda x: x > 5, [UInt], name="big"),
        ]
        with pytest.raises(ZenBudgetExceeded):
            atomic_predicates(UInt, preds, ctx, budget=Budget(deadline_s=0.0))
        # And an adequate budget still computes the partition.
        atoms = atomic_predicates(
            UInt, preds, TransformerContext(max_list_length=1),
            budget=Budget(deadline_s=60.0),
        )
        assert len(atoms) >= 3
