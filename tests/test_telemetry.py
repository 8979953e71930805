"""Tests for repro.telemetry: spans, metrics, exporters, profiles,
the shared counter protocol, and cross-subprocess trace propagation."""

import json
import os
import threading
import time

import pytest

from repro import Int, QueryEngine, QuerySpec, ZenFunction
from repro.backends import BddBackend, SatBackend
from repro.bdd import Bdd, BddStats
from repro.core.budget import Budget, BudgetMeter
from repro.sat import Solver
from repro.telemetry import (
    METRICS,
    TRACER,
    Counter,
    Gauge,
    MetricsRegistry,
    QueryProfile,
    Span,
    Tracer,
    chrome_trace_events,
    delta,
    disable_tracing,
    enable_tracing,
    load_chrome_trace,
    profile_from_spans,
    span,
    span_events,
    tracing_enabled,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with a disabled, empty tracer."""
    TRACER.hard_reset()
    yield
    TRACER.hard_reset()


# ---------------------------------------------------------------------------
# Span basics: nesting, attributes, timing
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_builds_a_tree(self):
        enable_tracing()
        with span("root"):
            with span("child-a"):
                with span("grandchild"):
                    pass
            with span("child-b"):
                pass
        roots = TRACER.finished_roots()
        assert [r.name for r in roots] == ["root"]
        root = roots[0]
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [g.name for g in root.children[0].children] == ["grandchild"]

    def test_attributes_via_kwargs_and_set(self):
        enable_tracing()
        with span("op", backend="sat", n=3) as sp:
            sp.set("answer", 42)
        root = TRACER.finished_roots()[0]
        assert root.attrs == {"backend": "sat", "n": 3, "answer": 42}

    def test_durations_are_positive_and_nested_within_parent(self):
        enable_tracing()
        with span("outer"):
            with span("inner"):
                sum(range(1000))
        outer = TRACER.finished_roots()[0]
        inner = outer.children[0]
        assert outer.duration_s > 0
        assert 0 < inner.duration_s <= outer.duration_s
        # Wall-clock placement: the child starts within the parent.
        assert outer.start <= inner.start <= outer.end

    def test_exception_is_recorded_and_stack_unwinds(self):
        enable_tracing()
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("x")
        root = TRACER.finished_roots()[0]
        assert root.attrs["error"] == "ValueError"
        assert TRACER.current() is None

    def test_abandoned_inner_spans_are_closed(self):
        enable_tracing()
        outer = TRACER.begin("outer")
        TRACER.begin("leaked")  # never finished explicitly
        TRACER.finish(outer)
        root = TRACER.finished_roots()[0]
        assert [c.name for c in root.children] == ["leaked"]
        assert root.children[0].attrs.get("abandoned") is True

    def test_threads_build_independent_trees(self):
        enable_tracing()
        barrier = threading.Barrier(2)

        def work(name):
            with span(name):
                barrier.wait(timeout=5)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = TRACER.finished_roots()
        assert sorted(r.name for r in roots) == ["t0", "t1"]
        assert len({r.tid for r in roots}) == 2

    def test_to_dict_from_dict_round_trip(self):
        enable_tracing()
        with span("root", k="v"):
            with span("child"):
                pass
        root = TRACER.finished_roots()[0]
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.name == "root"
        assert rebuilt.attrs == {"k": "v"}
        assert rebuilt.pid == os.getpid()
        assert [c.name for c in rebuilt.children] == ["child"]
        assert rebuilt.duration_s == root.duration_s

    def test_record_files_retroactive_span(self):
        enable_tracing()
        TRACER.record("attempt.crash", TRACER.now_wall() - 0.5, 0.5, {"n": 1})
        root = TRACER.finished_roots()[0]
        assert root.name == "attempt.crash"
        assert root.duration_s == 0.5
        assert root.attrs == {"n": 1}

    def test_adopt_preserves_foreign_pid(self):
        enable_tracing()
        foreign = {
            "name": "task.find",
            "start": TRACER.now_wall(),
            "dur": 0.25,
            "pid": 99999,
            "tid": 1,
            "attrs": {},
            "children": [],
        }
        with span("service"):
            TRACER.adopt(foreign)
        root = TRACER.finished_roots()[0]
        child = root.children[0]
        assert child.pid == 99999
        assert root.pid == os.getpid()


# ---------------------------------------------------------------------------
# Disabled-mode guarantees
# ---------------------------------------------------------------------------


class TestDisabledMode:
    def test_disabled_records_nothing(self):
        assert not tracing_enabled()
        with span("invisible", x=1) as sp:
            sp.set("y", 2)
        assert TRACER.finished_roots() == []

    def test_disabled_span_is_shared_singleton(self):
        # No allocation per call: the no-op context manager is one
        # shared object, the cheapness guarantee of disabled mode.
        assert span("a") is span("b")
        assert TRACER.span("c") is span("d")

    def test_enable_disable_round_trip(self):
        enable_tracing()
        assert tracing_enabled()
        with span("seen"):
            pass
        disable_tracing()
        with span("unseen"):
            pass
        names = [r.name for r in TRACER.finished_roots()]
        assert names == ["seen"]

    def test_instrumented_bdd_ops_do_not_record_when_disabled(self):
        m = Bdd()
        x, y = m.new_var(), m.new_var()
        m.and_(x, y)
        assert TRACER.finished_roots() == []

    def test_hard_reset_clears_enabled_and_roots(self):
        enable_tracing()
        with span("old"):
            pass
        TRACER.hard_reset()
        assert not TRACER.enabled
        assert TRACER.finished_roots() == []


# ---------------------------------------------------------------------------
# Metrics registry and the snapshot()/delta() protocol
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_increments_and_rejects_decrease(self):
        c = Counter("queries")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_sets_and_adds(self):
        g = Gauge("depth")
        g.set(10)
        g.add(-3)
        assert g.value == 7

    def test_registry_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")  # same name, different kind

    def test_registry_snapshot_is_flat_and_delta_compatible(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.gauge("nodes").set(100)
        before = reg.snapshot()
        reg.counter("hits").inc(2)
        reg.gauge("nodes").set(150)
        diff = delta(before, reg.snapshot())
        assert diff["hits"] == 2
        assert diff["nodes"] == 50

    def test_delta_handles_asymmetric_keys_and_non_numeric(self):
        diff = delta({"a": 1, "s": "x"}, {"a": 4, "b": 2, "s": "y"})
        assert diff == {"a": 3, "b": 2}

    def test_global_registry_exists(self):
        assert isinstance(METRICS, MetricsRegistry)


class TestCounterProtocol:
    """Every instrumented subsystem speaks snapshot()/delta() and the
    canonical reset_counters() spelling."""

    def _check(self, obj, bump, key):
        before = obj.snapshot()
        assert all(
            isinstance(v, (int, float)) for v in before.values()
        ), f"non-numeric snapshot from {type(obj).__name__}"
        bump()
        diff = delta(before, obj.snapshot())
        assert diff[key] > 0
        obj.reset_counters()
        # BddStats drops zeroed per-op keys entirely; either way the
        # counter reads 0 after reset.
        assert obj.snapshot().get(key, 0) == 0

    def test_bdd_stats(self):
        m = Bdd()
        x, y = m.new_var(), m.new_var()
        self._check(m.stats(), lambda: m.and_(x, y), "calls.and")

    def test_bdd_manager_delegates(self):
        m = Bdd()
        x, y = m.new_var(), m.new_var()
        m.or_(x, y)
        assert m.snapshot()["calls.or"] == 1
        m.reset_counters()
        assert "calls.or" not in m.snapshot()

    def test_sat_solver(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, b])
        self._check(s, lambda: s.solve(), "decisions")

    def test_sat_backend(self):
        backend = SatBackend()
        x = backend.fresh("x")

        def bump():
            backend.solve(x)

        self._check(backend, bump, "solves")

    def test_budget_meter(self):
        meter = BudgetMeter(Budget(max_conflicts=100))
        self._check(meter, meter.on_conflict, "conflicts")

    def test_numeric_snapshot_fallbacks(self):
        # Solver and BddStats speak snapshot() themselves; no adapter
        # between a source and delta().
        assert Solver().snapshot()["conflicts"] == 0
        stats = BddStats()
        stats.peak_nodes = 7
        assert stats.snapshot()["peak_nodes"] == 7


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExport:
    def _sample_roots(self):
        enable_tracing()
        with span("query.find", backend="sat"):
            with span("compile.flatten"):
                pass
            with span("solve"):
                pass
        return TRACER.finished_roots()

    def test_span_events_flatten_preorder_with_depth(self):
        roots = self._sample_roots()
        events = list(span_events(roots))
        assert [e["name"] for e in events] == [
            "query.find",
            "compile.flatten",
            "solve",
        ]
        assert [e["depth"] for e in events] == [0, 1, 1]
        assert all("children" not in e for e in events)

    def test_jsonl_export_is_valid_json_lines(self, tmp_path):
        roots = self._sample_roots()
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fp:
            count = write_jsonl(roots, fp)
        lines = path.read_text().splitlines()
        assert count == len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["name"] == "query.find"
        assert parsed[0]["attrs"] == {"backend": "sat"}

    def test_chrome_trace_round_trip(self, tmp_path):
        roots = self._sample_roots()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), roots)
        assert count == 3
        data = json.loads(path.read_text())
        assert "traceEvents" in data
        events = load_chrome_trace(str(path))
        assert {e["name"] for e in events} == {
            "query.find",
            "compile.flatten",
            "solve",
        }
        by_name = {e["name"]: e for e in events}
        root = by_name["query.find"]
        child = by_name["compile.flatten"]
        # Complete events with µs timestamps, children inside parents.
        # Epoch-µs floats have a ~0.25 µs ulp, so the exported events
        # nest only up to rounding ...
        assert all(e["ph"] == "X" for e in events)
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1.0
        assert root["args"] == {"backend": "sat"}
        # ... while the spans themselves nest exactly, on times relative
        # to the root (before the epoch anchor is added): a span's start
        # and duration come from one clock reading.
        (top,) = roots
        for inner in top.children:
            offset = inner._t0 - top._t0
            assert 0.0 <= offset
            assert offset + inner.duration_s <= top.duration_s
            assert inner.start == TRACER.wall_from_monotonic(inner._t0)

    def test_chrome_trace_labels_processes(self):
        parent_tree = {
            "name": "service",
            "start": 0.0,
            "dur": 1.0,
            "pid": 100,
            "tid": 1,
            "attrs": {},
            "children": [],
        }
        worker_tree = dict(parent_tree, name="task.find", pid=200, start=0.2)
        events = chrome_trace_events([parent_tree, worker_tree])
        meta = {
            e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert meta == {100: "parent", 200: "worker-200"}

    def test_write_chrome_trace_defaults_to_global_tracer(self, tmp_path):
        self._sample_roots()
        path = tmp_path / "global.json"
        assert write_chrome_trace(str(path)) == 3

    def test_empty_trace_is_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        assert write_chrome_trace(str(path), []) == 0
        assert load_chrome_trace(str(path)) == []


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


class TestQueryProfile:
    def test_profile_from_spans_aggregates_phases(self):
        enable_tracing()
        with span("query.find"):
            with span("solve"):
                pass
            with span("solve"):
                pass
        root = TRACER.finished_roots()[0]
        profile = profile_from_spans([root], backend="sat")
        assert profile.query == "query.find"
        assert profile.backend == "sat"
        assert profile.counts["solve"] == 2
        assert profile.phases["solve"] <= profile.total_s
        assert profile.phase_ms("missing") == 0.0
        assert "query.find" in profile.summary()

    def test_profile_merges_numeric_attrs_into_counters(self):
        tree = {
            "name": "sat.solve",
            "start": 0.0,
            "dur": 0.1,
            "pid": 1,
            "tid": 1,
            "attrs": {"conflicts": 5, "result": "sat"},
            "children": [],
        }
        profile = profile_from_spans([tree], counters={"elapsed_s": 0.2})
        assert profile.counters["sat.solve.conflicts"] == 5
        assert profile.counters["elapsed_s"] == 0.2
        assert "sat.solve.result" not in profile.counters

    def test_profile_is_picklable(self):
        import pickle

        profile = QueryProfile(query="q", total_s=1.0, phases={"a": 0.5})
        clone = pickle.loads(pickle.dumps(profile))
        assert clone == profile


# ---------------------------------------------------------------------------
# End-to-end instrumentation (in-process)
# ---------------------------------------------------------------------------


def _plus_one(x):
    return x + 1


class TestInstrumentation:
    def test_find_produces_compile_solve_validate_spans(self):
        enable_tracing()
        f = ZenFunction(_plus_one, [Int])
        assert f.find(lambda x, out: out == 5) == 4
        roots = [r for r in TRACER.finished_roots() if r.name == "query.find"]
        assert len(roots) == 1
        names = [c.name for c in roots[0].children]
        assert names == ["compile.flatten", "solve", "validate.replay"]
        solve = roots[0].children[1]
        inner = {s.name for s in solve.walk()}
        assert "sat.bitblast" in inner
        assert "sat.solve" in inner

    def test_sat_solve_span_carries_counters_and_phase_times(self):
        enable_tracing()
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, -b])
        assert s.solve()
        solve_spans = [
            r for r in TRACER.finished_roots() if r.name == "sat.solve"
        ]
        assert solve_spans
        attrs = solve_spans[0].attrs
        assert attrs["result"] == "sat"
        assert "decisions" in attrs

    def test_bdd_spans_only_for_outermost_ops(self):
        enable_tracing()
        m = Bdd()
        vars_ = [m.new_var() for _ in range(4)]
        # No public op opens a span of its own; the phase around the
        # ops carries their counts.
        with span("phase", counters=m):
            m.and_many(vars_)
        (root,) = TRACER.finished_roots()
        assert [s.name for s in root.walk()] == ["phase"]
        assert root.attrs["calls.and_many"] == 1
        assert root.attrs["node_count"] > 0

    def test_bdd_backend_find_produces_bdd_spans(self):
        enable_tracing()
        f = ZenFunction(_plus_one, [Int])
        f.find(lambda x, out: out == 5, backend="bdd")
        root = [
            r for r in TRACER.finished_roots() if r.name == "query.find"
        ][0]
        names = {s.name for s in root.walk()}
        assert "bdd.any_sat" in names
        assert not any(n.startswith("bdd.") for n in names - {"bdd.any_sat"})
        (flatten,) = [s for s in root.walk() if s.name == "compile.flatten"]
        assert flatten.attrs["calls.and"] > 0

    def test_query_result_profile_via_fallback(self):
        from repro import solve_with_fallback

        enable_tracing()
        f = ZenFunction(_plus_one, [Int])
        result = solve_with_fallback(f, lambda x, out: out == 5)
        assert result.answer == 4
        assert result.profile is not None
        assert result.profile.backend == "sat"
        assert result.profile.phases["query.find"] > 0

    def test_query_result_profile_none_when_disabled(self):
        from repro import solve_with_fallback

        f = ZenFunction(_plus_one, [Int])
        result = solve_with_fallback(f, lambda x, out: out == 5)
        assert result.profile is None


class TestPhaseSpans:
    """Spans time phases; the ops inside a phase are counters on it, so
    a trace is as large for a 150-line ACL as for a 30-line one."""

    @staticmethod
    def _acl_query(lines):
        from repro.network import Header, acl_match_line
        from repro.workloads import random_acl

        acl = random_acl(lines, seed=901)
        last = len(acl.rules)
        return ZenFunction(
            lambda h: acl_match_line(acl, h) == last, [Header]
        )

    def _traced_find(self, lines):
        enable_tracing()
        try:
            assert self._acl_query(lines).find(backend="bdd") is not None
        finally:
            disable_tracing()
        roots = TRACER.finished_roots()
        TRACER.reset()
        return [node for root in roots for node in root.walk()]

    def test_trace_size_does_not_grow_with_the_model(self):
        small = self._traced_find(30)
        large = self._traced_find(150)
        assert len(large) <= 6
        assert [s.name for s in small] == [s.name for s in large]

    def test_flatten_span_carries_the_manager_delta(self):
        engine = BddBackend()
        before = engine.snapshot()
        assert self._acl_query(150).find(backend=engine) is not None
        untraced = delta(before, engine.snapshot())["calls.and"]
        (flatten,) = [
            s for s in self._traced_find(150) if s.name == "compile.flatten"
        ]
        assert flatten.attrs["calls.and"] == untraced > 0

    def test_transformer_image_span_carries_and_exists(self):
        from repro import Byte

        transformer = ZenFunction(lambda x: x + 3, [Byte]).transformer()
        states = transformer.context.from_predicate(
            ZenFunction(lambda x: x < 16, [Byte])
        )
        enable_tracing()
        try:
            transformer.transform_forward(states)
        finally:
            disable_tracing()
        (forward,) = [
            s
            for root in TRACER.finished_roots()
            for s in root.walk()
            if s.name == "transformer.forward"
        ]
        assert forward.attrs["calls.and_exists"] == 1
        assert [s.name for s in forward.walk()] == ["transformer.forward"]


# ---------------------------------------------------------------------------
# Cross-subprocess propagation through the query service
# ---------------------------------------------------------------------------


class TestServiceTracePropagation:
    def test_run_spec_ships_serialized_spans_when_traced(self):
        from repro.service import run_spec

        spec = QuerySpec(
            builder="tests.service_faults:eq_model",
            kind="find",
            predicate="tests.service_faults:is_even",
            trace=True,
        )
        payload = run_spec(spec)
        assert "spans" in payload
        (tree,) = payload["spans"]
        assert tree["name"] == "task.find"
        assert tree["pid"] == os.getpid()
        names = {s["name"] for s in span_events([tree])}
        assert "compile.flatten" in names
        # run_spec with a fresh tracer leaves it disabled afterwards.
        assert not tracing_enabled()

    def test_run_spec_omits_spans_by_default(self):
        from repro.service import run_spec

        payload = run_spec(
            QuerySpec(
                builder="tests.service_faults:eq_model",
                kind="find",
                predicate="tests.service_faults:is_even",
            )
        )
        assert "spans" not in payload

    def test_engine_merges_worker_spans_into_parent_trace(self, tmp_path):
        enable_tracing()
        with QueryEngine(pool_size=2, default_timeout_s=60.0) as engine:
            result = engine.run(
                QuerySpec(
                    builder="tests.service_faults:eq_model",
                    kind="find",
                    predicate="tests.service_faults:is_even",
                ),
                fallback=False,
            )
        assert result.profile is not None
        assert result.profile.query == "query.find"
        assert result.profile.phases["compile.flatten"] > 0
        roots = TRACER.finished_roots()
        run_root = [r for r in roots if r.name == "service.run_many"][0]
        worker_tasks = [
            c for c in run_root.children if c.name == "task.find"
        ]
        assert worker_tasks
        assert worker_tasks[0].pid == result.worker_pid
        assert worker_tasks[0].pid != os.getpid()

    def test_run_differential_renders_one_merged_timeline(self, tmp_path):
        enable_tracing()
        with QueryEngine(pool_size=2, default_timeout_s=60.0) as engine:
            result = engine.run_differential(
                QuerySpec(
                    builder="tests.service_faults:eq_model",
                    kind="find",
                    predicate="tests.service_faults:is_even",
                )
            )
        assert result.agreed is True
        # Both sides' worker trees hang under the differential root,
        # each from its own worker process.
        roots = TRACER.finished_roots()
        diff_root = [
            r for r in roots if r.name == "service.run_differential"
        ][0]
        worker_tasks = [
            c for c in diff_root.children if c.name == "task.find"
        ]
        assert len(worker_tasks) == 2
        assert {t.attrs.get("backend") for t in worker_tasks} == {
            "sat",
            "bdd",
        }
        assert os.getpid() not in {t.pid for t in worker_tasks}
        assert all(r.name != "task.find" for r in roots)  # no orphan
        path = tmp_path / "differential.json"
        count = write_chrome_trace(str(path))
        assert count > 0
        events = load_chrome_trace(str(path))
        pids = {e["pid"] for e in events}
        # One file spanning the parent and both worker subprocesses.
        assert os.getpid() in pids
        assert len(pids) >= 3
        names = {e["name"] for e in events}
        assert "service.run_differential" in names
        assert "compile.flatten" in names  # compile stage
        assert "sat.solve" in names  # solver kernel
        assert "bdd.any_sat" in names  # BDD solve; its ops are counters

    def test_untraced_engine_run_ships_no_spans(self):
        with QueryEngine(pool_size=1, default_timeout_s=60.0) as engine:
            result = engine.run(
                QuerySpec(
                    builder="tests.service_faults:eq_model",
                    kind="find",
                    predicate="tests.service_faults:is_even",
                ),
                fallback=False,
            )
        assert result.profile is None
        assert TRACER.finished_roots() == []

    def test_attempt_records_carry_queue_wait_and_duration(self):
        with QueryEngine(pool_size=1, default_timeout_s=60.0) as engine:
            result = engine.run(
                QuerySpec(
                    builder="tests.service_faults:eq_model",
                    kind="find",
                    predicate="tests.service_faults:is_even",
                ),
                fallback=False,
            )
        (attempt,) = result.attempts
        assert attempt.outcome == "ok"
        assert attempt.queue_wait_s >= 0.0
        assert attempt.duration_ms == pytest.approx(
            attempt.elapsed_s * 1000.0
        )
        assert attempt.elapsed_s > 0

    def test_failed_query_error_carries_attempt_timing(self):
        from repro import ZenQueryFailed

        with QueryEngine(
            pool_size=1,
            retries=0,
            default_timeout_s=60.0,
        ) as engine:
            with pytest.raises(ZenQueryFailed) as excinfo:
                engine.run(
                    QuerySpec(
                        builder="tests.service_faults:crash_model",
                        kind="evaluate",
                        args=(1,),
                    ),
                    fallback=False,
                )
        attempts = excinfo.value.attempts
        assert attempts
        assert all(a.queue_wait_s >= 0.0 for a in attempts)
        assert all(a.duration_ms >= 0.0 for a in attempts)

    def test_retry_spans_recorded_in_parent_timeline(self):
        enable_tracing()
        with QueryEngine(
            pool_size=1,
            retries=0,
            backoff_base_s=0.01,
            jitter_s=0.0,
            default_timeout_s=60.0,
        ) as engine:
            try:
                engine.run(
                    QuerySpec(
                        builder="tests.service_faults:crash_model",
                        kind="evaluate",
                        args=(1,),
                    ),
                    fallback=False,
                )
            except Exception:
                pass
        run_root = [
            r
            for r in TRACER.finished_roots()
            if r.name == "service.run_many"
        ][0]
        crash_spans = [
            c for c in run_root.children if c.name == "attempt.crash"
        ]
        assert crash_spans
        assert crash_spans[0].attrs["backend"] == "sat"


# ---------------------------------------------------------------------------
# Warm-dispatch telemetry: cache and batch counters
# ---------------------------------------------------------------------------


class TestWarmDispatchMetrics:
    def test_cache_counters_move_through_the_registry(self):
        with QueryEngine(pool_size=1, default_timeout_s=60.0) as engine:
            spec = QuerySpec(
                builder="tests.service_faults:eq_model",
                kind="find",
            )
            engine.run(spec)
            engine.run(spec)
        stats = engine.cache_stats()
        assert stats["miss"] >= 1
        assert stats["hit"] >= 1

    def test_batch_size_histogram_counts_submissions(self):
        with QueryEngine(
            pool_size=1, max_batch_size=8, default_timeout_s=60.0
        ) as engine:
            engine.run_many(
                [
                    QuerySpec(builder="tests.service_faults:eq_model")
                    for _ in range(6)
                ]
            )
        stats = engine.dispatch_stats()
        assert stats["batches"] >= 1
        # The batch sizes sum to the number of dispatched specs.
        assert stats["batched_tasks"] == 6

    def test_cache_eviction_counter_moves_on_capacity_pressure(self):
        with QueryEngine(
            pool_size=1, cache_capacity=1, default_timeout_s=60.0
        ) as engine:
            eq = QuerySpec(builder="tests.service_faults:eq_model")
            unsat = QuerySpec(builder="tests.service_faults:unsat_model")
            engine.run(eq)
            engine.run(unsat)  # evicts eq from the capacity-1 cache
            engine.run(eq)
        stats = engine.cache_stats()
        assert stats["evict"] >= 1


# ---------------------------------------------------------------------------
# Perfetto export of grafted worker spans under batching
# ---------------------------------------------------------------------------


class TestBatchedTracePerfetto:
    def test_one_batch_many_specs_distinct_deadlines(self, tmp_path):
        """Three specs with different deadlines ride one batch; each
        worker span grafts into the parent trace and the Perfetto
        export labels the worker process."""
        enable_tracing()
        # The client's own span puts this process on the timeline.
        with QueryEngine(
            pool_size=1, max_batch_size=8, default_timeout_s=60.0
        ) as engine, span("client"):
            # Occupy the only worker until the three queries are all
            # queued: the dispatcher must batch them when it frees.
            release = tmp_path / "release"
            blocker = engine.submit(
                QuerySpec(
                    builder="tests.service_faults:wait_for_file",
                    kind="call",
                    args=(str(release),),
                    timeout_s=60.0,
                )
            )
            deadline = time.monotonic() + 10.0
            while (
                engine.status().pool_busy == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert engine.status().pool_busy == 1
            futures = [
                engine.submit(
                    QuerySpec(
                        builder="tests.service_faults:eq_model",
                        label=f"q{i}",
                        deadline_s=20.0 + 5.0 * i,
                    )
                )
                for i in range(3)
            ]
            release.touch()
            assert blocker.result().answer is True
            results = engine.gather(futures)
        from tests.service_faults import MAGIC

        assert [r.answer for r in results] == [MAGIC] * 3
        # One shared round trip: every spec reports the same batch.
        assert {r.batch_size for r in results} == {3}
        worker_pids = {r.worker_pid for r in results}
        assert len(worker_pids) == 1

        path = tmp_path / "batched.json"
        assert write_chrome_trace(str(path)) > 0
        events = load_chrome_trace(str(path))
        complete = [e for e in events if e["ph"] == "X"]
        tasks = [e for e in complete if e["name"] == "task.find"]
        # One grafted span per spec, all from the same worker process,
        # none from the parent.
        assert len(tasks) == 3
        assert {e["pid"] for e in tasks} == worker_pids
        assert os.getpid() not in {e["pid"] for e in tasks}
        # The export names the worker's process track.
        raw = json.loads(path.read_text())["traceEvents"]
        meta = {
            e["pid"]: e["args"]["name"]
            for e in raw
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        (worker_pid,) = worker_pids
        assert meta[worker_pid] == f"worker-{worker_pid}"
        assert meta[os.getpid()] == "parent"

    def test_batch_peers_nest_inside_their_own_specs(self):
        """Spans from batched peers never leak into each other."""
        enable_tracing()
        with QueryEngine(
            pool_size=1, max_batch_size=4, default_timeout_s=60.0
        ) as engine:
            results = engine.run_many(
                [
                    QuerySpec(
                        builder="tests.service_faults:eq_model",
                        kind="find",
                        label=f"q{i}",
                    )
                    for i in range(4)
                ],
                fallback=False,
            )
        assert all(r.answer is not None for r in results)
        roots = TRACER.finished_roots()
        (run_root,) = [r for r in roots if r.name == "service.run_many"]
        tasks = [c for c in run_root.children if c.name == "task.find"]
        assert len(tasks) == 4
        for task in tasks:
            names = {s["name"] for s in span_events([task.to_dict()])}
            assert "compile.flatten" in names


# ---------------------------------------------------------------------------
# Concurrent JSON-lines export
# ---------------------------------------------------------------------------


class TestConcurrentJsonl:
    def test_parallel_writers_emit_only_whole_lines(self, tmp_path):
        """write_jsonl from many threads onto one handle never tears
        or interleaves lines — each call is a single write."""
        path = tmp_path / "concurrent.jsonl"
        writers, spans_per_writer = 8, 25

        def tree(writer: int, i: int) -> dict:
            return {
                "name": f"w{writer}.s{i}",
                "start": float(i),
                "dur": 0.5,
                "pid": writer,
                "tid": 1,
                "attrs": {"writer": writer, "payload": "x" * 64},
                "children": [],
            }

        with open(path, "w") as fp:
            threads = [
                threading.Thread(
                    target=lambda w=w: write_jsonl(
                        [tree(w, i) for i in range(spans_per_writer)], fp
                    )
                )
                for w in range(writers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        lines = path.read_text().splitlines()
        assert len(lines) == writers * spans_per_writer
        parsed = [json.loads(line) for line in lines]  # no torn lines
        names = {p["name"] for p in parsed}
        assert len(names) == writers * spans_per_writer
        # Every writer's block arrived contiguously and in order.
        by_writer = {}
        for p in parsed:
            by_writer.setdefault(p["attrs"]["writer"], []).append(p["name"])
        for w, seen in by_writer.items():
            assert seen == [f"w{w}.s{i}" for i in range(spans_per_writer)]

    def test_empty_roots_write_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        with open(path, "w") as fp:
            assert write_jsonl([], fp) == 0
        assert path.read_text() == ""
