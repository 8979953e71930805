#!/usr/bin/env python3
"""Checks of the benchmark's own arithmetic; run it directly.

    python3 benchmarks/e2e/harness_selftest.py

Covers the percentile rule (at least ten samples beyond), self-time
arithmetic on a synthetic span tree, failed-query accounting in a lap,
the 5 % attribution limit, and two negative tests of the answer checks:
a header space analysis answer with one path set removed must be
rejected, and with one expected verdict flipped the benchmark command
must exit non-zero.  Not collected by the tier-1 suite (the name matches
no pytest pattern).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import harness, lap, reference  # noqa: E402
from benchmarks.e2e.run import unattributed_problems  # noqa: E402
from benchmarks.e2e.workloads import HsaFabric, Query, Workload  # noqa: E402


def check_percentile_choice() -> None:
    supported = harness.highest_supported_percentile
    assert supported(99) is None  # 9.9 samples beyond p90
    assert supported(100) == 90.0
    assert supported(199) == 90.0  # 9.95 beyond p95
    assert supported(200) == 95.0
    assert supported(999) == 95.0
    assert supported(1000) == 99.0
    assert supported(10_000) == 99.9
    values = list(range(1, 201))  # 1..200
    assert harness.percentile(values, 50) == 100
    assert harness.percentile(values, 95) == 190  # ten samples beyond
    assert harness.percentile(values, 100) == 200
    assert harness.percentile([7.0], 95) == 7.0


def check_self_time() -> None:
    recorder = harness.Recorder()
    # find [0, 10] > flatten [1, 8] > ops (summed) 4 s; solve [8, 9.5]
    recorder.spans = [
        ["find", 0.0, 10.0, None, "q"],
        ["flatten", 1.0, 8.0, 0, "q"],
        ["ops", 1.0, 5.0, 1, "q"],
        ["solve", 8.0, 9.5, 0, "q"],
        ["find", 20.0, 21.0, None, "other"],
    ]
    own = recorder.self_times("q")
    assert own == {"find": 1.5, "flatten": 3.0, "ops": 4.0, "solve": 1.5}, own
    assert abs(sum(own.values()) - 10.0) < 1e-12  # self times tile the root
    assert recorder.totals("q")["flatten"] == 7.0
    assert recorder.self_times()["find"] == 2.5  # both queries
    events = recorder.chrome_trace()
    assert events[1]["ts"] == 1e6 and events[1]["dur"] == 7e6


def check_live_spans() -> None:
    recorder = harness.Recorder()
    with recorder.span("outer", "q1"):
        with recorder.span("inner"):
            pass
        recorder.add("summed", recorder.spans[0][1], 0.0)
    assert [s[0] for s in recorder.spans] == ["outer", "inner", "summed"]
    assert recorder.spans[1][3] == 0 and recorder.spans[2][3] == 0
    assert all(s[4] == "q1" for s in recorder.spans)  # the query id is inherited
    assert recorder.self_times("q1")["outer"] >= 0.0


class _TwoGoodOneBad(Workload):
    """Three instant queries; the checker rejects the second, the third raises."""

    name = "selftest"
    sizes = {"quick": {}}

    def setup(self) -> None:
        self.chunks = [[Query(f"selftest/0/{i}", "sat", i)] for i in range(3)]

    def run(self, query: Query):
        if query.payload == 2:
            raise RuntimeError("boom")
        return query.payload

    def check(self, query: Query, answer):
        return ("sat", True) if answer == 0 else ("unsat", False)


def check_failed_accounting() -> None:
    assert harness.failed_share(10, 0) == 0.0
    assert harness.failed_share(8, 2) == 0.25
    assert harness.failed_share(0, 0) == 1.0  # nothing attempted is no pass
    workload = _TwoGoodOneBad(seed=0, lap=0, size="quick")
    workload.setup()
    report = lap._measure(workload, 0.0, False, {})
    assert (report["attempted"], report["failed"]) == (3, 2), report
    assert len(report["samples"]) == 1  # a failed query has no latency figure
    assert report["verdicts"]["selftest/0/1"] == "unsat"
    assert any("boom" in failure for failure in report["failures"])
    # A verdict that passes its reference but not expected.json fails too.
    report = lap._measure(workload, 0.0, False, {"selftest/0/0": "unsat"})
    assert report["failed"] == 3 and not report["samples"]


def check_quartiles_and_counts() -> None:
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.2, 0.8, 1.0, 1.0]
    q1, q3 = harness.quartiles(values)
    assert abs(q1 - 0.9375) < 1e-9 and abs(q3 - 1.0625) < 1e-9, (q1, q3)
    assert harness.quartiles([3.0]) == (3.0, 3.0)
    counts = {"bdd.node_expansions": 5, "bdd.peak_nodes": 7}
    harness.merge_counts(counts, {"bdd.node_expansions": 2, "bdd.peak_nodes": 4})
    assert counts == {"bdd.node_expansions": 7, "bdd.peak_nodes": 7}


def check_attribution_limit() -> None:
    layers = {"lang.build_s": 0.1, "bdd.op_s": 0.8, "core.find_unattributed_s": 0.04}
    assert unattributed_problems("row", layers) == []  # 4.3 % of 0.94 s
    layers["core.find_unattributed_s"] = -0.09  # layers overshoot by 11 %
    assert len(unattributed_problems("row", layers)) == 1
    layers["unattributed_se_s"] = 0.03  # … but on samples too noisy to tell
    assert unattributed_problems("row", layers) == []
    assert unattributed_problems("hsa", {"core.transformer_build_s": 1.0}) == []


def check_missing_path_set_fails() -> None:
    """A header space answer that lost a whole path set must be rejected."""
    workload = HsaFabric(seed=2020, lap=0, size="quick")
    workload.setup()
    query = workload.chunks[0][0]
    answer = workload.run(query)
    assert workload.check(query, answer)[1] is True
    forwarded = [s for s in answer if len(s.path) % 2 == 0]
    assert forwarded, "the fabric forwards nothing"
    for dropped in forwarded:
        rest = [s for s in answer if s is not dropped]
        assert workload.check(query, rest)[1] is False, dropped.path


def check_flipped_expectation_fails() -> None:
    """The negative test: a wrong expected verdict must fail the command."""
    expected = reference.load_expected()
    key = "acl_equiv_sat/0/0"
    assert expected["quick"][key] == "unsat", "expected.json lacks the quick set"
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", "acl_equiv_sat",
        "--quick",
        "--seed", str(expected["seed"]),
    ]  # fmt: skip
    clean = subprocess.run(command, capture_output=True, text=True, timeout=170)
    assert clean.returncode == 0, clean.stderr
    assert json.loads(clean.stdout.splitlines()[-1])["correct"] is True
    expected["quick"][key] = "sat"
    flipped = HERE / "results" / "selftest-flipped-expected.json"
    harness.write_json(flipped, expected)
    try:
        broken = subprocess.run(
            command + ["--expected", str(flipped)],
            capture_output=True,
            text=True,
            timeout=170,
        )
    finally:
        flipped.unlink()
    assert broken.returncode != 0, "a flipped expectation went unnoticed"
    verdict = json.loads(broken.stdout.splitlines()[-1])
    assert verdict["correct"] is False and verdict["failed"] == 1, verdict


def main() -> int:
    checks = [
        check_percentile_choice,
        check_self_time,
        check_live_spans,
        check_failed_accounting,
        check_quartiles_and_counts,
        check_attribution_limit,
        check_missing_path_set_fails,
        check_flipped_expectation_fails,
    ]
    for check in checks:
        check()
        print(f"ok  {check.__name__}")
    print(f"{len(checks)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
