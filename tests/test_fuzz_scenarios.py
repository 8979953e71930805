"""Tests for the fuzz farm's scenario layer: the deterministic
generator, the JSON schema validator, the model builder, and the
independent reference interpreter.

The load-bearing invariant is four-way agreement: for any generated
scenario, the Zen model's concrete evaluation must match the
reference interpreter on every probe input — otherwise the oracle's
``ref_divergence`` signal would be noise instead of signal.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.fuzz import (
    KNOWN_BUGS,
    SCENARIO_KINDS,
    ScenarioGenerator,
    build_scenario_model,
    reference_inputs,
    reference_result,
    validate_scenario,
)
from repro.fuzz.oracle import check_scenario, topology_replay
from repro.fuzz.scenario import scenario_label, scenario_rng


def concrete_verdict(data):
    """The scenario's verdict on concrete inputs from the Zen models:
    its boolean model, or, for a topology (which compose decides and
    which has no boolean model), the Zen hop's concrete replay."""
    if data["kind"] == "topology":
        payload = data["payload"]
        replay = topology_replay(payload["topo"], payload["query"])
        return lambda inputs: replay(*inputs)
    model = build_scenario_model(data)
    return lambda inputs: bool(model.evaluate(*inputs))


class TestGeneratorDeterminism:
    def test_same_seed_same_scenarios(self):
        first = ScenarioGenerator(seed=11)
        second = ScenarioGenerator(seed=11)
        for index in range(20):
            assert first.scenario(index) == second.scenario(index)

    def test_different_seeds_diverge(self):
        a = ScenarioGenerator(seed=1)
        b = ScenarioGenerator(seed=2)
        assert any(a.scenario(i) != b.scenario(i) for i in range(10))

    def test_scenario_rng_is_platform_stable_string_seeded(self):
        # String seeding hashes via SHA-512, so the stream is a pure
        # function of (seed, index) — not of PYTHONHASHSEED.
        assert scenario_rng(3, 4).random() == scenario_rng(3, 4).random()
        assert scenario_rng(3, 4).random() != scenario_rng(3, 5).random()

    def test_all_kinds_appear(self):
        generator = ScenarioGenerator(seed=0)
        seen = {generator.scenario(i)["kind"] for i in range(60)}
        assert seen == set(SCENARIO_KINDS)

    def test_kind_restriction_is_honoured(self):
        generator = ScenarioGenerator(seed=0, kinds=("acl", "zen"))
        kinds = {generator.scenario(i)["kind"] for i in range(20)}
        assert kinds <= {"acl", "zen"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGenerator(kinds=("acl", "bogus"))

    def test_scenarios_are_pure_json(self):
        generator = ScenarioGenerator(seed=5)
        for index in range(20):
            data = generator.scenario(index)
            assert data == json.loads(json.dumps(data))

    def test_inject_bug_is_stamped(self):
        generator = ScenarioGenerator(seed=0, inject_bug="acl-last-match")
        assert generator.scenario(0)["bug"] == "acl-last-match"

    def test_label_is_stable(self):
        data = ScenarioGenerator(seed=9).scenario(3)
        assert scenario_label(data) == f"fuzz-{data['kind']}-s9-i3"


class TestValidation:
    def _base(self):
        return ScenarioGenerator(seed=4).scenario(0)

    def test_generated_scenarios_validate(self):
        generator = ScenarioGenerator(seed=8)
        for index in range(30):
            validate_scenario(generator.scenario(index))

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate_scenario(["not", "a", "dict"])

    def test_rejects_unknown_kind(self):
        data = self._base()
        data["kind"] = "bogus"
        with pytest.raises(ValueError):
            validate_scenario(data)

    def test_rejects_wrong_version(self):
        data = self._base()
        data["version"] = 99
        with pytest.raises(ValueError):
            validate_scenario(data)

    def test_rejects_unknown_bug(self):
        data = self._base()
        data["bug"] = "not-a-known-bug"
        with pytest.raises(ValueError):
            validate_scenario(data)

    def test_rejects_out_of_range_target_line(self):
        generator = ScenarioGenerator(seed=0, kinds=("acl",))
        data = generator.scenario(0)
        data["payload"]["target_line"] = len(data["payload"]["rules"]) + 5
        with pytest.raises(ValueError):
            validate_scenario(data)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("zen", "ast", ["eq", ["var", True], ["const", 0]]),
            ("zen", "ast", ["eq", ["var", 0], ["const", True]]),
            ("zen", "vars", True),
            ("acl", "target_line", True),
            ("routemap", "target_line", True),
            ("routemap", "check_local_pref", True),
            ("routemap", "check_local_pref", 1 << 32),
            ("acl", "max_list_length", True),
        ],
        ids=[
            "bool-var-index",
            "bool-const",
            "bool-vars",
            "bool-acl-target-line",
            "bool-routemap-target-line",
            "bool-local-pref",
            "local-pref-2**32",
            "bool-max-list-length",
        ],
    )
    def test_ints_are_never_bools_or_out_of_range(self, kind, field, value):
        data = ScenarioGenerator(seed=0, kinds=(kind,)).scenario(0)
        if kind == "zen":  # two variables, so index True (1) is in range
            data["payload"].update(vars=2, ast=["eq", ["var", 0], ["const", 0]])
        where = data if field == "max_list_length" else data["payload"]
        validate_scenario(data)
        where[field] = value
        with pytest.raises(ValueError):
            validate_scenario(data)

    def test_rejects_malformed_ast(self):
        generator = ScenarioGenerator(seed=0, kinds=("zen",))
        data = generator.scenario(0)
        data["payload"]["ast"] = ["frobnicate", 1, 2]
        with pytest.raises(ValueError):
            validate_scenario(data)


class TestModelAgainstReference:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_concrete_evaluation_matches_reference(self, kind):
        generator = ScenarioGenerator(seed=13, kinds=(kind,))
        probe_rng = random.Random(f"test-probes:{kind}")
        for index in range(8):
            data = generator.scenario(index)
            verdict = concrete_verdict(data)
            for inputs in reference_inputs(data, probe_rng, count=6):
                assert verdict(inputs) == reference_result(data, inputs), (
                    data,
                    inputs,
                )

    def test_model_builds_from_json_round_trip(self):
        generator = ScenarioGenerator(seed=21)
        for index in range(10):
            data = json.loads(json.dumps(generator.scenario(index)))
            verdict = concrete_verdict(data)
            probe_rng = random.Random(index)
            inputs = reference_inputs(data, probe_rng, count=1)[0]
            assert isinstance(verdict(inputs), bool)

    def test_topology_has_no_boolean_model(self):
        data = ScenarioGenerator(seed=0, kinds=("topology",)).scenario(0)
        with pytest.raises(ValueError, match="compose decides"):
            build_scenario_model(data)

    def test_known_bugs_are_detectable(self):
        # Every canary bug must actually diverge from the correct
        # semantics on at least one generated scenario's probes —
        # otherwise it cannot validate the farm.
        for bug in KNOWN_BUGS:
            generator = ScenarioGenerator(seed=2, inject_bug=bug)
            diverged = False
            for index in range(80):
                data = generator.scenario(index)
                clean = dict(data, bug=None)
                probe_rng = random.Random(f"canary:{bug}:{index}")
                for inputs in reference_inputs(data, probe_rng, count=8):
                    if reference_result(data, inputs) != reference_result(
                        clean, inputs
                    ):
                        diverged = True
                        break
                if diverged:
                    break
            assert diverged, f"bug {bug!r} never diverged"


def wildcard_scenario(kind):
    """A generated scenario rewritten to use the schema's wildcards: a
    missing or null match prefix, which matches every address."""
    data = ScenarioGenerator(seed=13, kinds=(kind,)).scenario(0)
    payload = data["payload"]
    if kind == "acl":
        payload["rules"][0]["src"] = None
        payload["rules"][-1] = {"action": True}
    elif kind == "nat":
        del payload["rules"][0]["match_src"]
        payload["rules"][1]["match_dst"] = None
        payload["acl"][-1] = {"action": True}
    else:
        # [0, 0] and a wildcard mean the same, so the verdict must not
        # move; only the spelling does.
        for device in payload["topo"]["devices"].values():
            rules = [r for acl in device.get("acl_in", {}).values() for r in acl]
            for rule in rules:
                if rule["src"] == [0, 0]:
                    del rule["src"]
                if rule["dst"] == [0, 0]:
                    rule["dst"] = None
            for rule in device.get("nat") or ():
                if rule["match_src"] == [0, 0]:
                    rule["match_src"] = None
    return data


class TestWildcardRules:
    """A missing or null match prefix is a wildcard in the payload
    schema; the reference interpreter reads it the same way."""

    def test_reference_reads_missing_prefixes_as_wildcards(self):
        from repro.fuzz.reference import _acl_allows, _apply_nat
        from repro.network import Header

        h = Header(dst_ip=1, src_ip=2, dst_port=3, src_port=4, protocol=6)
        assert _acl_allows([{"action": True}], h, None)
        assert _acl_allows([{"action": True, "src": None}], h, None)
        assert _apply_nat([{"set_dst_port": 80}], h).dst_port == 80

    @pytest.mark.parametrize("kind", ["acl", "nat", "topology"])
    def test_oracle_agrees_on_wildcard_rules(self, kind):
        data = wildcard_scenario(kind)
        validate_scenario(data)
        report = check_scenario(data)
        assert report.ok, report.detail
        verdict = concrete_verdict(data)
        probe_rng = random.Random(f"wildcards:{kind}")
        for inputs in reference_inputs(data, probe_rng, count=12):
            assert verdict(inputs) == reference_result(data, inputs), inputs

    def test_topology_wildcards_keep_the_verdict(self):
        spelled = ScenarioGenerator(seed=13, kinds=("topology",)).scenario(0)
        data = wildcard_scenario("topology")
        assert data != spelled
        probe_rng = random.Random("wildcards:same")
        for inputs in reference_inputs(spelled, probe_rng, count=24):
            assert reference_result(data, inputs) == reference_result(
                spelled, inputs
            )
