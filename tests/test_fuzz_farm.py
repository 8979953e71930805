"""Tests for the fuzz farm's oracle loop, shrinker, artifacts, and
campaign driver.

The canary test is the one that matters: plant a known bug in the
reference interpreter, and the farm must catch it, delta-debug the
scenario to a minimal reproducer, file a JSON artifact, and replay
that artifact deterministically.  If that loop works for a planted
bug, it works for a real one.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.fuzz import (
    DEFAULT_BUDGET,
    FarmConfig,
    ScenarioGenerator,
    check_scenario,
    decode_inputs,
    encode_inputs,
    load_artifact,
    replay_artifact,
    run_farm,
    scenario_size,
    shrink_scenario,
    validate_scenario,
)
from repro.network.packet import Header, Packet
from repro.network.routemap import Route

CANARY = "acl-last-match"


def _first_canary_failure(seed=2, max_index=40):
    """The first (scenario, report) the canary bug makes fail."""
    generator = ScenarioGenerator(seed=seed, kinds=("acl",), inject_bug=CANARY)
    for index in range(max_index):
        data = generator.scenario(index)
        report = check_scenario(data, probe_count=8, budget=DEFAULT_BUDGET)
        if report.failed:
            return data, report
    pytest.fail("canary bug never produced a failing scenario")


class TestOracle:
    def test_clean_scenarios_pass(self):
        generator = ScenarioGenerator(seed=17)
        verdicts = []
        for index in range(12):
            report = check_scenario(
                generator.scenario(index),
                probe_count=6,
                budget=DEFAULT_BUDGET,
            )
            verdicts.append(report)
            assert not report.failed, (report.signature, report.detail)
        # Budget exhaustion is allowed (explained) but must be rare.
        explained = [r for r in verdicts if r.explained is not None]
        assert len(explained) < len(verdicts)

    def test_canary_failure_has_ref_divergence_signature(self):
        _, report = _first_canary_failure()
        assert report.failed
        assert report.signature[0] in ("ref_divergence", "unsat_refuted")

    def test_pinned_extra_inputs_are_checked_first(self):
        data, report = _first_canary_failure()
        if report.counterexample is None:
            pytest.skip("first canary failure carried no counterexample")
        again = check_scenario(
            data,
            probe_count=0,
            budget=DEFAULT_BUDGET,
            extra_inputs=[report.counterexample],
        )
        assert again.failed


class TestShrinker:
    def test_shrink_preserves_signature_and_shrinks(self):
        data, report = _first_canary_failure()
        pinned = (
            [report.counterexample]
            if report.counterexample is not None
            else []
        )

        def failing(candidate):
            check = check_scenario(
                candidate,
                probe_count=8,
                budget=DEFAULT_BUDGET,
                extra_inputs=pinned,
            )
            return (
                check.failed
                and check.signature is not None
                and check.signature[0] == report.signature[0]
            )

        minimized = shrink_scenario(data, failing, max_checks=200)
        validate_scenario(minimized)
        assert failing(minimized)
        assert scenario_size(minimized) < scenario_size(data)
        # Idempotence: a second pass finds nothing more to remove.
        again = shrink_scenario(minimized, failing, max_checks=200)
        assert scenario_size(again) == scenario_size(minimized)

    def test_shrink_on_trivial_oracle_terminates(self):
        data = ScenarioGenerator(seed=5, kinds=("acl",)).scenario(0)
        minimized = shrink_scenario(data, lambda _c: True, max_checks=150)
        validate_scenario(minimized)
        assert scenario_size(minimized) <= scenario_size(data)


class TestArtifacts:
    def test_input_encoding_round_trips_through_json(self):
        inputs = (
            Header(
                dst_ip=0xC0A80001,
                src_ip=7,
                dst_port=443,
                src_port=1024,
                protocol=6,
            ),
            Packet(
                overlay_header=Header(
                    dst_ip=1, src_ip=2, dst_port=3, src_port=4, protocol=5
                ),
                underlay_header=Header(
                    dst_ip=9, src_ip=8, dst_port=0, src_port=0, protocol=47
                ),
            ),
            Route(
                prefix=0x0A000000,
                prefix_len=8,
                local_pref=100,
                med=0,
                as_path=[65001],
                communities=[3, 5],
            ),
            41,
            True,
        )
        encoded = json.loads(json.dumps(encode_inputs(inputs)))
        assert decode_inputs(encoded) == inputs

    def test_load_artifact_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-an-artifact.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError):
            load_artifact(str(path))

    def test_load_artifact_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "stale.json"
        path.write_text(
            json.dumps({"kind": "fuzz-failure", "artifact_version": 99})
        )
        with pytest.raises(ValueError):
            load_artifact(str(path))


class TestFarm:
    def test_clean_campaign_is_ok(self):
        result = run_farm(
            FarmConfig(seed=3, count=20, service_every=0, probe_count=6)
        )
        assert result.ok
        assert result.checked == 20
        assert result.failed == 0
        assert result.clean + result.explained == 20
        summary = result.summary()
        json.dumps(summary)  # summary must be JSON-ready
        # One verdict per scenario; "hsa_judged" rides along.
        assert sum(
            n
            for tally in summary["verdicts"].values()
            for label, n in tally.items()
            if label != "hsa_judged"
        ) == 20

    def test_summary_and_cli_report_the_verdict_mix(self, capsys):
        from repro.fuzz.__main__ import main

        config = FarmConfig(
            seed=7, count=20, kinds=("topology",), service_every=0
        )
        result = run_farm(config)
        tally = result.summary()["verdicts"]["topology"]
        assert result.ok
        assert tally["reachable"] + tally["unreachable"] == 20
        assert tally["unreachable"] >= 1
        # A clean campaign judged every "unreachable" with HSA.
        assert tally.get("hsa_judged") == tally["unreachable"]
        assert main(
            [
                "run", "--kinds", "topology", "--seed", "7", "--count",
                "20", "--service-every", "0", "--quiet",
            ]
        ) == 0
        assert (
            f"topology: {tally['reachable']} reachable, "
            f"{tally['unreachable']} unreachable, "
            f"{tally['hsa_judged']} hsa_judged"
        ) in capsys.readouterr().out

    def test_campaign_routes_through_service(self):
        result = run_farm(
            FarmConfig(
                seed=3,
                count=4,
                service_every=2,
                probe_count=4,
                pool_size=2,
            )
        )
        assert result.ok
        # Scenarios 0 and 2 are routed; 0 is a topology scenario, which
        # runs in process whatever the farm routes.
        assert result.service_checked == 1

    def test_topology_scenarios_never_reach_the_service(self, monkeypatch):
        import repro.service

        def no_engine(*args, **kwargs):
            raise AssertionError("a topology campaign spawned a QueryEngine")

        monkeypatch.setattr(repro.service, "QueryEngine", no_engine)
        result = run_farm(
            FarmConfig(
                seed=7,
                count=4,
                kinds=("topology",),
                service_every=1,
                chaos_every=1,
            )
        )
        assert result.ok and result.checked == 4
        assert result.service_checked == 0
        assert result.chaos_injected == 0

    def test_wall_budget_truncates(self):
        result = run_farm(
            FarmConfig(seed=0, count=10_000, wall_budget_s=0.5, service_every=0)
        )
        assert result.truncated
        assert result.checked < 10_000

    def test_canary_is_caught_shrunk_filed_and_replayed(self, tmp_path):
        config = FarmConfig(
            seed=2,
            count=40,
            kinds=("acl",),
            inject_bug=CANARY,
            probe_count=8,
            service_every=0,
            max_failures=1,
            shrink_checks=200,
        )
        result = run_farm(config, artifact_dir=str(tmp_path))
        assert not result.ok
        assert result.failed == 1
        assert result.truncated  # stopped at max_failures
        assert len(result.artifact_paths) == 1

        artifact = load_artifact(result.artifact_paths[0])
        assert artifact["signature"]
        assert artifact["scenario"]["bug"] == CANARY
        assert artifact["minimized"]["bug"] == CANARY
        assert artifact["shrink"]["minimized_size"] <= (
            artifact["shrink"]["original_size"]
        )
        assert artifact["farm"]["seed"] == 2

        reproduced, report = replay_artifact(result.artifact_paths[0])
        assert reproduced, (report.signature, report.detail)
        # Replay is deterministic: run it twice, same verdict.
        reproduced_again, _ = replay_artifact(result.artifact_paths[0])
        assert reproduced_again


@pytest.mark.fuzz
class TestFuzzSmoke:
    """The CI smoke campaign — excluded from tier-1 (``-m "not fuzz"``),
    run by the dedicated fuzz-smoke job."""

    def test_seeded_campaign_is_clean(self):
        result = run_farm(FarmConfig(seed=7, count=200))
        assert result.ok, result.summary()
        assert result.checked == 200

    def test_random_seed_campaign_is_clean(self):
        # A different seed every run: genuine fuzzing, bounded runtime.
        seed = random.SystemRandom().randrange(1 << 32)
        result = run_farm(
            FarmConfig(seed=seed, count=100, wall_budget_s=240.0)
        )
        assert result.ok, result.summary()
