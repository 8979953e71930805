"""Tests for repro.obs: rolling windows, the flight recorder and its
debug bundles, SLO burn-rate alerting, live engine status (in-process,
cross-process via status files, and the CLI), and the perf-regression
sentry in benchmarks/report.py."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import QueryEngine, QuerySpec, ZenQueryFailed
from repro.obs import (
    BUNDLE_KIND,
    BUNDLE_VERSION,
    EngineStatus,
    FlightRecorder,
    RollingCounter,
    RollingHistogram,
    SLOMonitor,
    SLOSpec,
    load_bundle,
    read_status_file,
    render_bundle,
    render_status,
    write_bundle,
    write_status_file,
)
from tests.service_faults import MAGIC

EQ = "tests.service_faults:eq_model"
CRASH = "tests.service_faults:crash_model"
ERROR = "tests.service_faults:error_model"

REPO_ROOT = Path(__file__).resolve().parent.parent


def _cli(args, **kwargs):
    """Run ``python -m repro.obs ...`` as a real subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        **kwargs,
    )


def make_engine(**overrides) -> QueryEngine:
    defaults = dict(
        pool_size=2,
        retries=1,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        jitter_s=0.0,
        breaker_threshold=50,
        default_timeout_s=20.0,
    )
    defaults.update(overrides)
    return QueryEngine(**defaults)


# ---------------------------------------------------------------------------
# Rolling windows
# ---------------------------------------------------------------------------


class TestRollingCounter:
    def test_counts_inside_the_window(self):
        counter = RollingCounter(window_s=10.0, slots=10)
        for t in (100.0, 101.0, 105.0):
            counter.add(t)
        assert counter.total(105.0) == 3.0
        assert counter.rate(105.0) == pytest.approx(0.3)

    def test_old_slots_age_out(self):
        counter = RollingCounter(window_s=10.0, slots=10)
        counter.add(100.0)
        counter.add(109.0)
        # At t=115 the slot covering t=100 fell off; t=109 remains.
        assert counter.total(115.0) == 1.0
        assert counter.total(150.0) == 0.0

    def test_amounts_accumulate(self):
        counter = RollingCounter(window_s=60.0, slots=6)
        counter.add(10.0, amount=2.5)
        counter.add(10.0, amount=0.5)
        assert counter.total(10.0) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingCounter(window_s=0.0)
        with pytest.raises(ValueError):
            RollingCounter(window_s=1.0, slots=0)


class TestRollingHistogram:
    def test_quantile_is_a_bucket_upper_bound(self):
        hist = RollingHistogram(window_s=60.0, bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            hist.observe(100.0, value)
        assert hist.count(100.0) == 4
        # p50 lands in the first bucket, p99 in the third.
        assert hist.quantile(100.0, 0.5) == 0.1
        assert hist.quantile(100.0, 0.99) == 10.0

    def test_empty_window_has_no_quantile(self):
        hist = RollingHistogram(window_s=10.0)
        assert hist.quantile(0.0, 0.99) is None
        summary = hist.summary(0.0)
        assert summary == {
            "count": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
        }

    def test_observations_age_out(self):
        hist = RollingHistogram(window_s=10.0, slots=10)
        hist.observe(100.0, 1.0)
        assert hist.count(100.0) == 1
        assert hist.count(200.0) == 0
        assert hist.quantile(200.0, 0.5) is None

    def test_summary_reports_milliseconds(self):
        hist = RollingHistogram(window_s=60.0, bounds=(0.001, 0.01, 0.1))
        for _ in range(10):
            hist.observe(5.0, 0.005)
        summary = hist.summary(5.0)
        assert summary["count"] == 10.0
        assert summary["p50_ms"] == 10.0  # 0.01s bucket upper edge
        assert summary["p99_ms"] == 10.0

    def test_overflow_bucket_reports_largest_bound(self):
        hist = RollingHistogram(window_s=60.0, bounds=(0.1, 1.0))
        hist.observe(1.0, 50.0)
        assert hist.quantile(1.0, 0.99) == 1.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            RollingHistogram(bounds=(1.0, 0.1))
        with pytest.raises(ValueError):
            RollingHistogram().quantile(0.0, 1.5)


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_rings_are_bounded_but_counters_keep_counting(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record_attempt({"spec": f"s{i}", "outcome": "ok"})
        rings = recorder.rings()
        assert len(rings["attempts"]) == 4
        assert rings["attempts"][-1]["spec"] == "s9"
        assert recorder.snapshot()["attempts"] == 10

    def test_events_carry_kind_and_timestamp(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record_event("brownout_enter", utilization=0.95)
        (event,) = recorder.rings()["events"]
        assert event["kind"] == "brownout_enter"
        assert event["utilization"] == 0.95
        assert event["at_unix"] > 0

    def test_counter_protocol(self):
        recorder = FlightRecorder(capacity=8)
        before = recorder.snapshot()
        recorder.record_span({"name": "x"})
        recorder.record_event("shed")
        recorder.trigger("test")  # no bundle_dir: event only
        after = recorder.snapshot()
        moved = recorder.delta(before, after)
        assert moved["spans"] == 1
        assert moved["events"] == 2  # "shed" + the trigger event
        assert moved["triggers"] == 1
        assert moved["bundles_written"] == 0
        recorder.reset_counters()
        assert all(v == 0 for v in recorder.snapshot().values())

    def test_trigger_writes_a_self_contained_bundle(self, tmp_path):
        recorder = FlightRecorder(capacity=8, cooldown_s=0.0)
        recorder.record_attempt(
            {"spec": "q", "outcome": "crash", "priority": "batch"}
        )
        path = recorder.trigger(
            "crash_loop",
            detail="q",
            context={"crash_count": 3},
            bundle_dir=str(tmp_path),
        )
        assert path is not None and os.path.exists(path)
        bundle = load_bundle(path)
        assert bundle["kind"] == BUNDLE_KIND
        assert bundle["version"] == BUNDLE_VERSION
        assert bundle["cause"] == "crash_loop"
        assert bundle["detail"] == "q"
        assert bundle["pid"] == os.getpid()
        assert bundle["context"] == {"crash_count": 3}
        assert bundle["recent"]["attempts"][0]["outcome"] == "crash"
        assert isinstance(bundle["metrics"], dict)
        assert recorder.bundle_paths() == [path]

    def test_cooldown_suppresses_repeat_captures_per_cause(self, tmp_path):
        recorder = FlightRecorder(capacity=8, cooldown_s=10.0)
        first = recorder.trigger(
            "breaker_open", bundle_dir=str(tmp_path), now=100.0
        )
        inside = recorder.trigger(
            "breaker_open", bundle_dir=str(tmp_path), now=105.0
        )
        other_cause = recorder.trigger(
            "brownout", bundle_dir=str(tmp_path), now=105.0
        )
        after = recorder.trigger(
            "breaker_open", bundle_dir=str(tmp_path), now=111.0
        )
        assert first is not None and other_cause is not None
        assert inside is None
        assert after is not None
        # Suppressed triggers still leave an event trail.
        trigger_events = [
            e for e in recorder.rings()["events"] if e["kind"] == "trigger"
        ]
        assert [e["suppressed"] for e in trigger_events] == [
            False, True, False, False,
        ]
        assert recorder.snapshot()["triggers"] == 4
        assert recorder.snapshot()["bundles_written"] == 3

    def test_old_bundles_are_pruned(self, tmp_path):
        recorder = FlightRecorder(capacity=4, cooldown_s=0.0, max_bundles=2)
        paths = [
            recorder.trigger(f"cause{i}", bundle_dir=str(tmp_path))
            for i in range(4)
        ]
        assert all(paths)
        kept = recorder.bundle_paths()
        assert kept == paths[-2:]
        assert not os.path.exists(paths[0])
        assert not os.path.exists(paths[1])
        assert all(os.path.exists(p) for p in kept)

    def test_render_bundle_is_human_readable(self, tmp_path):
        recorder = FlightRecorder(capacity=8, cooldown_s=0.0)
        recorder.record_attempt({"spec": "bad", "outcome": "timeout"})
        path = recorder.trigger(
            "slo_burn", detail="p99", bundle_dir=str(tmp_path),
            context={"engine": {"pool_size": 2}},
        )
        text = render_bundle(load_bundle(path))
        assert "cause=slo_burn" in text
        assert "timeout" in text
        assert "engine" in text

    def test_load_bundle_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-bundle.json"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ValueError):
            load_bundle(str(path))

    def test_write_bundle_never_clobbers(self, tmp_path):
        bundle = {
            "kind": BUNDLE_KIND, "version": BUNDLE_VERSION,
            "cause": "x", "captured_unix": 1_700_000_000.0,
        }
        first = write_bundle(str(tmp_path), bundle)
        second = write_bundle(str(tmp_path), bundle)
        assert first != second
        assert os.path.exists(first) and os.path.exists(second)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# ---------------------------------------------------------------------------
# SLO burn-rate monitor
# ---------------------------------------------------------------------------


class TestSLOSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="latencyy", objective=1.0)
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="latency", objective=0.0)
        with pytest.raises(ValueError):
            SLOSpec(
                name="x", kind="latency", objective=1.0,
                budget_fraction=1.5,
            )
        with pytest.raises(ValueError):
            SLOSpec(
                name="x", kind="latency", objective=1.0,
                window_s=5.0, fast_window_s=10.0,
            )

    def test_duplicate_names_rejected(self):
        spec = SLOSpec(name="same", kind="error_rate", objective=0.1)
        with pytest.raises(ValueError):
            SLOMonitor([spec, spec])


class TestSLOMonitor:
    def _latency_spec(self):
        return SLOSpec(
            name="p99", kind="latency", objective=0.1,
            budget_fraction=0.1, window_s=20.0, fast_window_s=4.0,
            burn_threshold=2.0,
        )

    def test_latency_burn_fires_once_then_recovers(self):
        monitor = SLOMonitor([self._latency_spec()])
        # Every request succeeds but blows the 100ms objective: the
        # bad fraction is 1.0 against a 0.1 budget -> burn rate 10.
        for i in range(8):
            monitor.observe(ok=True, latency_s=0.5, now=100.0 + i * 0.1)
        events = monitor.evaluate(101.0)
        assert [e["kind"] for e in events] == ["slo_burn"]
        assert events[0]["slo"] == "p99"
        assert events[0]["burn_fast"] >= 2.0
        # Edge-triggered: still burning, no repeat event.
        assert monitor.evaluate(101.5) == []
        # Healthy traffic pushes the bad fraction under budget in both
        # windows once the bad samples age out of the slow window.
        for i in range(40):
            monitor.observe(ok=True, latency_s=0.01, now=130.0 + i * 0.1)
        events = monitor.evaluate(135.0)
        assert [e["kind"] for e in events] == ["slo_recovered"]
        state = monitor.state(135.0)[0]
        assert state["burning"] is False
        assert state["alerts"] == 1

    def test_needs_both_windows_burning(self):
        monitor = SLOMonitor([self._latency_spec()])
        # Bad samples land only in the slow window: by t=110 they are
        # outside the 4s fast window, so no alert fires.
        for i in range(8):
            monitor.observe(ok=True, latency_s=0.5, now=100.0 + i * 0.1)
        assert monitor.evaluate(110.0) == []

    def test_error_rate_burn(self):
        monitor = SLOMonitor([
            SLOSpec(
                name="errors", kind="error_rate", objective=0.05,
                window_s=20.0, fast_window_s=4.0,
            )
        ])
        for i in range(10):
            monitor.observe(ok=(i % 2 == 0), latency_s=0.01, now=50.0 + i)
        events = monitor.evaluate(60.0)
        assert [e["kind"] for e in events] == ["slo_burn"]
        assert events[0]["slo_kind"] == "error_rate"

    def test_goodput_floor(self):
        monitor = SLOMonitor([
            SLOSpec(
                name="goodput", kind="goodput", objective=10.0,
                window_s=10.0, fast_window_s=2.0,
            )
        ])
        # No traffic at all: no signal, no alert.
        assert monitor.evaluate(5.0) == []
        # One success per second against a 10 qps floor: burn rate 10.
        for i in range(10):
            monitor.observe(ok=True, latency_s=0.01, now=100.0 + i)
        events = monitor.evaluate(109.5)
        assert [e["kind"] for e in events] == ["slo_burn"]

    def test_snapshot_protocol(self):
        monitor = SLOMonitor([self._latency_spec()])
        for i in range(8):
            monitor.observe(ok=True, latency_s=0.5, now=10.0 + i * 0.1)
        monitor.evaluate(11.0)
        assert monitor.snapshot() == {
            "slo.p99.burning": 1, "slo.p99.alerts": 1,
        }
        monitor.reset_counters()
        assert monitor.snapshot()["slo.p99.alerts"] == 0
        # Burning is live state, not a counter: reset keeps it.
        assert monitor.snapshot()["slo.p99.burning"] == 1


# ---------------------------------------------------------------------------
# Status snapshots: dataclass, file round-trip, rendering
# ---------------------------------------------------------------------------


def _sample_status() -> EngineStatus:
    return EngineStatus(
        generated_unix=time.time(),
        pid=4242,
        pool_size=4,
        pool_busy=3,
        workers=[101, 102, 103, 104],
        mode="brownout",
        queue={
            "depth": 5, "max_depth": 64, "utilization": 0.078,
            "in_flight": {"interactive": 1, "batch": 4, "fuzz": 0},
            "limits": {"interactive": 64, "batch": 57, "fuzz": 51},
        },
        latency_ms={
            "interactive": {
                "count": 120.0, "p50_ms": 3.2, "p95_ms": 12.8,
                "p99_ms": 25.6,
            },
        },
        cache={"hits": 10, "misses": 2, "evictions": 0, "hit_rate": 0.833},
        breakers={"sat": "closed", "bdd": "open"},
        slo=[{
            "name": "p99", "kind": "latency", "objective": 0.5,
            "burn_fast": 3.1, "burn_slow": 2.4, "burning": True,
            "alerts": 2,
        }],
        counters={"shed_overload": 7.0},
    )


class TestEngineStatusData:
    def test_file_round_trip(self, tmp_path):
        status = _sample_status()
        path = str(tmp_path / "nested" / "status.json")
        write_status_file(path, status)  # creates the directory
        loaded = read_status_file(path)
        assert loaded.as_dict() == status.as_dict()

    def test_from_dict_ignores_unknown_keys(self):
        data = _sample_status().as_dict()
        data["added_in_a_future_version"] = {"x": 1}
        status = EngineStatus.from_dict(data)
        assert status.pid == 4242
        assert not hasattr(status, "added_in_a_future_version")

    def test_render_mentions_everything_an_operator_needs(self):
        text = render_status(_sample_status())
        assert "pid 4242" in text
        assert "mode=brownout" in text
        assert "3/4 busy" in text
        assert "interactive" in text and "25.60ms" in text
        assert "bdd=open" in text
        assert "hit-rate 0.833" in text
        assert "BURNING" in text


# ---------------------------------------------------------------------------
# Live engine integration
# ---------------------------------------------------------------------------


class TestEngineObservability:
    def test_status_reflects_completed_work(self):
        recorder = FlightRecorder(capacity=32)
        with make_engine(recorder=recorder) as engine:
            for _ in range(3):
                assert engine.run(QuerySpec(builder=EQ)).answer == MAGIC
            status = engine.status()
        assert status.pid == os.getpid()
        assert status.pool_size == 2
        assert status.mode == "normal"
        assert status.queue["max_depth"] > 0
        assert status.latency_ms["interactive"]["count"] >= 3.0
        assert status.latency_ms["interactive"]["p99_ms"] > 0.0
        assert status.cache["hits"] >= 1
        assert status.counters["recorder.attempts"] >= 3.0
        # Every completion also landed in the flight recorder ring.
        attempts = recorder.rings()["attempts"]
        assert len(attempts) >= 3
        assert attempts[-1]["ok"] is True
        assert attempts[-1]["outcome"] == "ok"

    def test_status_file_readable_from_another_process(self, tmp_path):
        path = tmp_path / "engine-status.json"
        with make_engine(
            status_file=str(path), status_interval_s=0.05
        ) as engine:
            assert engine.run(QuerySpec(builder=EQ)).answer == MAGIC
            deadline = time.monotonic() + 10.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert path.exists(), "dispatcher never wrote the status file"
            status = read_status_file(str(path))
            assert status.pid == os.getpid()
            assert status.pool_size == 2
            # The CLI renders the same file from a real child process.
            proc = _cli(["status", str(path), "--json"])
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["pool_size"] == 2
            rendered = _cli(["status", str(path)])
            assert rendered.returncode == 0
            assert "pool" in rendered.stdout

    def test_status_cli_without_file_fails_cleanly(self, tmp_path):
        proc = _cli(["status", str(tmp_path / "missing.json")])
        assert proc.returncode == 1
        assert "no status file" in proc.stderr

    def test_slo_burn_triggers_event_and_bundle(self, tmp_path):
        recorder = FlightRecorder(capacity=64, cooldown_s=0.0)
        slo = SLOSpec(
            name="errors", kind="error_rate", objective=0.05,
            window_s=5.0, fast_window_s=0.5, burn_threshold=2.0,
        )
        with make_engine(
            retries=0,
            recorder=recorder,
            bundle_dir=str(tmp_path),
            slos=[slo],
            status_interval_s=0.05,
        ) as engine:
            for _ in range(4):
                with pytest.raises(ZenQueryFailed):
                    engine.run(QuerySpec(builder=ERROR), fallback=False)
            deadline = time.monotonic() + 10.0
            burn = []
            while not burn and time.monotonic() < deadline:
                burn = [
                    e for e in recorder.rings()["events"]
                    if e["kind"] == "slo_burn"
                ]
                time.sleep(0.02)
        assert burn, "slo_burn event never reached the recorder"
        assert burn[0]["slo"] == "errors"
        bundles = [p for p in engine.debug_bundles()]
        causes = {load_bundle(p)["cause"] for p in bundles}
        assert "slo_burn" in causes

    def test_manual_trigger_captures_engine_context(self, tmp_path):
        recorder = FlightRecorder(capacity=32, cooldown_s=0.0)
        with make_engine(
            recorder=recorder, bundle_dir=str(tmp_path)
        ) as engine:
            assert engine.run(QuerySpec(builder=EQ)).answer == MAGIC
            engine._obs_trigger("operator_request", detail="on demand")
            (path,) = engine.debug_bundles()
        bundle = load_bundle(path)
        assert bundle["cause"] == "operator_request"
        context = bundle["context"]
        assert context["engine"]["pool_size"] == 2
        assert "overload" in context
        assert "cache" in context
        assert context["worker_pids"]
        # The completed query is visible in the captured rings.
        assert any(
            a.get("outcome") == "ok"
            for a in bundle["recent"]["attempts"]
        )


@pytest.mark.chaos
class TestCrashLoopBundle:
    def test_crash_loop_dumps_inspectable_bundle(self, tmp_path):
        recorder = FlightRecorder(capacity=64, cooldown_s=0.0)
        with make_engine(
            pool_size=1,
            retries=2,
            crash_loop_threshold=2,
            recorder=recorder,
            bundle_dir=str(tmp_path),
        ) as engine:
            with pytest.raises(ZenQueryFailed) as info:
                engine.run(
                    QuerySpec(builder=CRASH, timeout_s=10), fallback=False
                )
            outcomes = [a.outcome for a in info.value.attempts]
            assert outcomes == ["crash", "crash", "crash_loop"]
            bundles = engine.debug_bundles()
        paths = [p for p in bundles if load_bundle(p)["cause"] == "crash_loop"]
        assert paths, f"no crash_loop bundle among {bundles}"
        bundle = load_bundle(paths[0])
        assert bundle["detail"]  # the crashing ref key
        assert bundle["context"]["crash_count"] >= 2
        assert any(
            a.get("outcome") == "crash"
            for a in bundle["recent"]["attempts"]
        )
        # The acceptance path: the bundle replays through the CLI.
        shown = _cli(["show", paths[0]])
        assert shown.returncode == 0, shown.stderr
        assert "cause=crash_loop" in shown.stdout
        as_json = _cli(["show", paths[0], "--json"])
        assert as_json.returncode == 0
        assert json.loads(as_json.stdout)["cause"] == "crash_loop"

    def test_show_rejects_a_non_bundle(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}\n")
        proc = _cli(["show", str(path)])
        assert proc.returncode == 1


# ---------------------------------------------------------------------------
# Perf-regression sentry (benchmarks/report.py)
# ---------------------------------------------------------------------------


def _load_report_module():
    spec = importlib.util.spec_from_file_location(
        "bench_report_under_test", REPO_ROOT / "benchmarks" / "report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report():
    return _load_report_module()


def _write_artifact(root: Path, p99_ms: float, qps: float) -> Path:
    path = root / "BENCH_synthetic.json"
    path.write_text(json.dumps({
        "bench": "synthetic",
        "quick": True,
        "python": "3",
        "results": [
            {"name": "hot-path", "p99_ms": p99_ms, "throughput_qps": qps}
        ],
    }) + "\n")
    return path


class TestTrendSentry:
    def test_bootstrap_without_history_passes_clean(self, tmp_path, report):
        _write_artifact(tmp_path, p99_ms=100.0, qps=500.0)
        assert report.check_trend(root=tmp_path) == 0

    def test_record_history_round_trips(self, tmp_path, report):
        _write_artifact(tmp_path, p99_ms=100.0, qps=500.0)
        assert report.record_history(root=tmp_path) == 1
        (entry,) = report.load_history(tmp_path)
        assert entry["bench"] == "synthetic"
        assert entry["quick"] is True
        metrics = entry["metrics"]
        label = [k for k in metrics if k.endswith(".p99_ms")]
        assert label and metrics[label[0]] == 100.0

    def test_doubled_p99_is_flagged(self, tmp_path, report):
        for _ in range(3):
            _write_artifact(tmp_path, p99_ms=100.0, qps=500.0)
            report.record_history(root=tmp_path)
        # The synthetic regression: p99 doubles, throughput holds.
        _write_artifact(tmp_path, p99_ms=200.0, qps=500.0)
        assert report.check_trend(root=tmp_path) == 1
        # --warn-only reports but never gates.
        assert report.check_trend(root=tmp_path, warn_only=True) == 0

    def test_throughput_collapse_is_flagged(self, tmp_path, report):
        for _ in range(3):
            _write_artifact(tmp_path, p99_ms=100.0, qps=500.0)
            report.record_history(root=tmp_path)
        _write_artifact(tmp_path, p99_ms=100.0, qps=100.0)
        assert report.check_trend(root=tmp_path) == 1

    def test_within_tolerance_passes(self, tmp_path, report):
        for _ in range(3):
            _write_artifact(tmp_path, p99_ms=100.0, qps=500.0)
            report.record_history(root=tmp_path)
        # +40% p99 and -20% qps sit inside the 50% / 30% tolerances.
        _write_artifact(tmp_path, p99_ms=140.0, qps=400.0)
        assert report.check_trend(root=tmp_path) == 0

    def test_sub_noise_floor_baselines_are_skipped(self, tmp_path, report):
        for _ in range(3):
            _write_artifact(tmp_path, p99_ms=0.2, qps=500.0)
            report.record_history(root=tmp_path)
        # 5x regression on a 0.2ms baseline is timer jitter, not a
        # regression; the 1ms noise floor keeps the gate quiet.
        _write_artifact(tmp_path, p99_ms=1.0, qps=500.0)
        assert report.check_trend(root=tmp_path) == 0

    def test_corrupt_history_lines_are_skipped(self, tmp_path, report):
        _write_artifact(tmp_path, p99_ms=100.0, qps=500.0)
        report.record_history(root=tmp_path)
        with (tmp_path / report.HISTORY_NAME).open("a") as fp:
            fp.write("not json\n{\"metrics\": 7}\n")
        assert len(report.load_history(tmp_path)) == 1
        assert report.check_trend(root=tmp_path) == 0

    def test_baseline_uses_last_n_entries(self, tmp_path, report):
        # Ancient slow history must not mask a regression against the
        # recent fast baseline.
        for p99 in (400.0, 400.0, 400.0, 100.0, 100.0):
            _write_artifact(tmp_path, p99_ms=p99, qps=500.0)
            report.record_history(root=tmp_path)
        _write_artifact(tmp_path, p99_ms=200.0, qps=500.0)
        # Last 3 entries give a 100ms median -> 200ms regresses; the
        # full 5-entry median of 400ms would have hidden it.
        assert report.check_trend(root=tmp_path, baseline_n=3) == 1
        assert report.check_trend(root=tmp_path, baseline_n=5) == 0
