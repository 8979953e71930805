"""Chaos faults inside fuzz campaigns.

Two properties under test.  First, the oracle's *taxonomy*: overload
outcomes (queue-full rejections, load sheds, deadline expiries,
drain-time failures) are **explained**, never filed as solver bugs —
a fuzz query dropped by the admission controller is the overload
machinery working as designed.  Second, the farm's *survival*: a
campaign with ``chaos_every`` set keeps injecting worker kills and
stalls into its own engine, absorbs the resulting transport
casualties via the in-process recheck, and still catches, shrinks,
files, and replays a genuine (canary) bug.
"""

from __future__ import annotations

import pytest

from repro.errors import ZenOverloadShed, ZenQueryFailed, ZenQueueFull
from repro.fuzz import (
    FarmConfig,
    ScenarioGenerator,
    check_scenario,
    replay_artifact,
    run_farm,
)
from repro.fuzz.oracle import IN_PROCESS_KINDS, make_specs
from repro.service.engine import AttemptRecord

CANARY = "acl-last-match"


def _scenario(seed=3, index=0, kinds=("acl",)):
    return ScenarioGenerator(seed=seed, kinds=kinds).scenario(index)


class _RaisingEngine:
    """A stub engine whose run_differential raises a prepared error."""

    def __init__(self, error):
        self._error = error

    def run_differential(self, spec):
        raise self._error


def _shed_attempt(outcome, error_type):
    return AttemptRecord(
        backend="sat",
        attempt=1,
        worker_pid=None,
        outcome=outcome,
        error_type=error_type,
        error=f"synthetic {outcome}",
    )


class TestOverloadTaxonomy:
    """Overload protection outcomes are explained, not failures."""

    def test_fuzz_specs_carry_fuzz_priority(self):
        spec = make_specs(_scenario())
        assert spec.priority == "fuzz"

    def test_queue_full_is_explained_overload(self):
        # ZenQueueFull is raised synchronously by submit() and carries
        # no attempts — it must be classified before the attempt-based
        # logic or it becomes a false ("error", "ZenQueueFull") find.
        error = ZenQueueFull(
            "admission queue full for priority 'fuzz' (depth 4, limit 1)",
            priority="fuzz",
            depth=4,
            limit=1,
        )
        report = check_scenario(
            _scenario(), engine=_RaisingEngine(error), probe_count=2
        )
        assert not report.failed
        assert report.explained == "overload"
        assert report.verdicts == {"sat": None, "bdd": None}

    def test_overload_shed_is_explained_overload(self):
        error = ZenOverloadShed(
            "dropped by load shedding",
            attempts=(_shed_attempt("shed_overload", "ZenOverloadShed"),),
            priority="fuzz",
        )
        report = check_scenario(
            _scenario(), engine=_RaisingEngine(error), probe_count=2
        )
        assert not report.failed
        assert report.explained == "overload"

    def test_shed_overload_attempts_classify_as_overload(self):
        error = ZenQueryFailed(
            "gave up",
            attempts=(_shed_attempt("shed_overload", "ZenOverloadShed"),),
        )
        report = check_scenario(
            _scenario(), engine=_RaisingEngine(error), probe_count=2
        )
        assert report.explained == "overload"

    def test_engine_shutdown_attempts_classify_as_overload(self):
        error = ZenQueryFailed(
            "engine shut down (drain) before this query was dispatched",
            attempts=(_shed_attempt("engine_shutdown", "ZenQueryFailed"),),
        )
        report = check_scenario(
            _scenario(), engine=_RaisingEngine(error), probe_count=2
        )
        assert report.explained == "overload"

    def test_deadline_expired_attempts_classify_as_timeout(self):
        error = ZenQueryFailed(
            "client deadline expired",
            attempts=(_shed_attempt("deadline_expired", "ZenQueryTimeout"),),
        )
        report = check_scenario(
            _scenario(), engine=_RaisingEngine(error), probe_count=2
        )
        assert not report.failed
        assert report.explained == "timeout"

    def test_unexplained_service_error_still_fails(self):
        # The taxonomy must not blanket-excuse every service failure.
        error = ZenQueryFailed("worker exploded for no good reason")
        report = check_scenario(
            _scenario(), engine=_RaisingEngine(error), probe_count=2
        )
        assert report.failed
        assert report.signature == ("error", "ZenQueryFailed")


class TestFarmChaosConfig:
    def test_chaos_is_off_by_default_and_counters_are_zero(self):
        config = FarmConfig(seed=3, count=2, service_every=0)
        assert config.chaos_every == 0
        result = run_farm(config)
        summary = result.summary()
        assert summary["chaos_injected"] == 0
        assert summary["chaos_absorbed"] == 0
        assert summary["chaos_faults"] == {}


@pytest.mark.fuzz
class TestChaosCampaigns:
    """Excluded from tier-1 (``-m "not fuzz"``); run by the CI
    fuzz-smoke job.  These hold a live worker pool and repeatedly
    kill its members."""

    def test_campaign_survives_worker_faults(self):
        # Every scenario the service can answer through the engine, a
        # kill or stall before every other one; topology scenarios are
        # answered in process.  The campaign must complete all
        # scenarios, absorb any fault-induced transport failures, and
        # end clean.
        config = FarmConfig(
            seed=11,
            count=24,
            service_every=1,
            chaos_every=2,
            probe_count=4,
            pool_size=2,
        )
        generator = ScenarioGenerator(seed=config.seed, kinds=config.kinds)
        kinds = [generator.scenario(i)["kind"] for i in range(config.count)]
        in_process = sum(kind in IN_PROCESS_KINDS for kind in kinds)
        assert 0 < in_process < config.count
        result = run_farm(config)
        assert result.ok, result.summary()
        assert result.checked == 24
        assert result.service_checked == 24 - in_process
        # Each topology scenario still got its composed verdict.
        topology = result.verdicts.get("topology", {})
        composed = topology.get("reachable", 0) + topology.get("unreachable", 0)
        assert composed == in_process
        assert result.chaos_injected >= 8
        assert result.failed == 0

    def test_canary_artifacts_survive_chaos(self, tmp_path):
        # The flip side of absorption: a *genuine* bug (the planted
        # canary diverges in the reference interpreter, independent of
        # any transport) must still be caught, shrunk, filed, and
        # replayable even while workers are being killed mid-run.
        config = FarmConfig(
            seed=2,
            count=40,
            kinds=("acl",),
            inject_bug=CANARY,
            probe_count=8,
            service_every=3,
            chaos_every=1,
            pool_size=2,
            max_failures=1,
            shrink_checks=200,
        )
        result = run_farm(config, artifact_dir=str(tmp_path))
        assert not result.ok
        assert result.failed == 1
        assert len(result.artifact_paths) == 1
        reproduced, report = replay_artifact(result.artifact_paths[0])
        assert reproduced, (report.signature, report.detail)
