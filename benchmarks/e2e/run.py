#!/usr/bin/env python3
"""The repo's benchmark: the paper's queries end to end, layer by layer.

Two ways in:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
  measures one workload (three laps, each a fresh interpreter) and prints
  one JSON object on the last line of stdout — every end-to-end metric
  (``--trace 0``) or every per-layer metric (``--trace 1``) of
  ``BENCHMARK.json``.  This is the form parent-vs-change pairs use.
* ``python3 benchmarks/e2e/run.py [--seed N] [--traced] [--quick]`` runs
  all seven workloads with their laps interleaved, prints every metric by
  name with its unit, and writes a stamped result file (``--traced`` is
  ``--trace 1`` under the issue's name).  ``--self-check`` runs two
  traced sets and compares them.

Inputs come from the seed, every verdict is judged against
`reference.py`, and the exit code is non-zero if any query failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"
if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not MANIFEST.is_file():
    sys.exit(
        f"{Path(__file__).name}: needs a checkout of the repository "
        f"(src/repro and BENCHMARK.json under {ROOT}); nothing measured"
    )
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import harness  # noqa: E402  (after the path set-up)

DEFAULT_SEED = 2020
#: A run of one workload is this many laps, each a fresh interpreter, and
#: a self-check compares this many sets.  Fixed: numbers from another lap
#: plan are not comparable with the baseline.
LAPS = 3
SETS = 2
#: The stepwise layers of a find() must account for the untraced median
#: to within this share of it (ISSUE: core.find_unattributed_s < 5 %).
UNATTRIBUTED_LIMIT = 0.05
POOL_WORKLOADS = ("compose_fattree", "service_stream")
LAP_TIMEOUT_S = 170
#: A lap imports `lap` and calls it; it is not started as `python -m`.
#: Run as `__main__`, the same lap timed the stepwise repeat of `acl_bdd`
#: 4 % slower against its untraced query (three-lap remainders of -2.9,
#: -3.7, -5.4 % against +2.1, -1.8, +1.2 % imported, alternated; the two
#: agree to 1.5 % when timed alone) — by all signs an artefact of how the
#: interpreter's heap is laid out, not pinned down further.
LAP_LAUNCHER = (
    "import sys; from benchmarks.e2e.lap import main; sys.exit(main(sys.argv[1:]))"
)
RESULTS_DIR = HERE / "results"

#: Counts that must repeat exactly for a fixed seed (the rest of the
#: per-layer metrics are times, ratios of times, or depend on scheduling).
EXACT_COUNTS = (
    "backends.bool_ops",
    "bdd.node_expansions",
    "bdd.peak_nodes",
    "aig.and_nodes",
    "aig.cnf_clauses",
    "aig.cnf_vars",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
    "sat.learned",
    "core.transformer_builds",
    "core.transformer_images",
    "analyses.path_sets",
    "compose.shards",
    "compose.escalations",
    "compose.monolith_fallbacks",
    "service.retries",
    "service.worker_restarts",
    "service.shed",
    "service.hedges_launched",
    "service.brownouts",
)
#: Stepwise layers of an in-process find(); with core.find_unattributed_s
#: (the median of untraced time minus these, query by query) they make up
#: the untraced time.
FIND_LAYERS = (
    "lang.build_s",
    "backends.flatten_self_s",
    "bdd.op_s",
    "aig.op_s",
    "aig.tseitin_s",
    "sat.solve_s",
    "backends.decode_replay_s",
)


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Laps
# ----------------------------------------------------------------------


def spawn_lap(
    workload: str,
    seed: int,
    lap: int,
    size: str,
    seconds: float,
    traced: bool,
    expected: Optional[Path],
) -> Dict[str, Any]:
    """Run one lap in a fresh interpreter and return its report.

    The yardstick is read here, in this small process, right before and
    after the lap (best of three each, one reading being jumpy):
    `host_slowdown` is a rough hint of how the host ran around it.
    """
    command = [
        sys.executable, "-c", LAP_LAUNCHER,
        workload, str(seed), str(lap), size, repr(seconds), "1" if traced else "0",
    ]  # fmt: skip
    if expected is not None:
        command.append(str(expected))
    before = min(harness.yardstick() for _ in range(3))
    done = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=LAP_TIMEOUT_S,
    )
    after = min(harness.yardstick() for _ in range(3))
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(
            f"lap {lap} of {workload} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["host_slowdown"] = (before + after) / 2 / harness.YARDSTICK_NOMINAL_S
    return report


# ----------------------------------------------------------------------
# Merging laps into metrics
# ----------------------------------------------------------------------


def end_to_end(laps: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics of one workload from its untraced laps."""
    samples = [s for lap in laps for s in lap["samples"]]
    verdicts = len(samples)
    wall = sum(lap["wall_s"] for lap in laps)
    return {
        "verdict_s_p50": harness.median(samples),
        "verdicts_per_s": verdicts / wall if wall else 0.0,
        "cpu_s_per_verdict": (
            sum(lap["cpu_s"] for lap in laps) / verdicts if verdicts else 0.0
        ),
        "peak_rss_mb": harness.median(lap["peak_rss_mb"] for lap in laps),
        "setup_s": harness.median(lap["setup_s"] for lap in laps),
    }


def per_layer(laps: List[Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics of one workload from its traced laps."""
    samples = [s for lap in laps for s in lap["samples"]]
    per_query: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    first_pass_s: Dict[str, float] = {}
    gauges: Dict[str, List[float]] = {}
    for lap in laps:
        for key, values in lap["per_query"].items():
            per_query.setdefault(key, []).extend(values)
        harness.merge_counts(counts, lap["counts"])
        for key, value in lap["first_pass_s"].items():
            first_pass_s[key] = first_pass_s.get(key, 0.0) + value
        for key, value in lap.get("gauges", {}).items():
            gauges.setdefault(key, []).append(value)

    untraced_p50 = harness.median(samples)
    out: Dict[str, float] = {key: harness.median(v) for key, v in per_query.items()}
    out.update(counts)
    out.update({key: sum(v) / len(v) for key, v in gauges.items()})

    expansions = counts.get("bdd.node_expansions", 0)
    hits = counts.get("bdd.cache_hits", 0)
    if expansions:
        out["bdd.cache_hit_rate"] = hits / (hits + expansions)
        out["bdd.ite_share"] = counts.get("bdd.ite_expansions", 0) / expansions
    remainders = per_query.get("core.find_unattributed_s", [])
    if remainders:
        # Standard error of their median, from the interquartile range.
        q1, q3 = harness.quartiles(remainders)
        out["unattributed_se_s"] = 1.25 * (q3 - q1) / 1.349 / len(remainders) ** 0.5
    solve_s = first_pass_s.get("sat.solve_s", 0.0)
    if solve_s:
        out["sat.propagations_per_s"] = counts.get("sat.propagations", 0) / solve_s
    if untraced_p50:
        out["bench.trace_overhead_share"] = out.get("traced.total", 0.0) / untraced_p50
        if "telemetry.enabled_s" in out:
            out["telemetry.enabled_overhead_share"] = (
                out["telemetry.enabled_s"] / untraced_p50
            )
        if "compose.inproc_s_p50" in out:
            out["compose.pool_speedup"] = out["compose.inproc_s_p50"] / untraced_p50
    attempted = sum(lap["attempted"] for lap in laps)
    failed = sum(lap["failed"] for lap in laps)
    # Demoted from the end-to-end list: p95 exists on one workload only
    # and failed_share is 0 in every passing run (see README).
    if (harness.highest_supported_percentile(len(samples)) or 0.0) >= 95.0:
        out["verdict_s_p95"] = harness.percentile(samples, 95.0)
    out["failed_share"] = harness.failed_share(attempted, failed)
    out["verdict_s_q1"], out["verdict_s_q3"] = harness.quartiles(samples)
    out["bench.samples"] = len(samples)
    out["bench.host_slowdown"] = harness.median(lap["host_slowdown"] for lap in laps)
    return out


def unattributed_problems(name: str, layers: Dict[str, float]) -> List[str]:
    """A find() row whose stepwise layers miss the untraced median.

    The remainder is a median of a few dozen paired differences taken on
    a host whose speed wanders, so it counts as a miss only where it is
    beyond the limit by more than twice its standard error: a real miss
    (the 22 % an uncollected heap once cost `routemap_bdd`) still fails,
    a noisy quarter of an hour does not.
    """
    if "core.find_unattributed_s" not in layers:
        return []
    rest = layers["core.find_unattributed_s"]
    slack = 2 * layers.get("unattributed_se_s", 0.0)
    total = rest + sum(layers.get(layer, 0.0) for layer in FIND_LAYERS)
    if abs(rest) - slack <= UNATTRIBUTED_LIMIT * total:
        return []
    return [
        f"{name}: core.find_unattributed_s is {rest:+.4f} s (±{slack:.4f}), "
        f"{rest / total:+.1%} of the untraced median (limit {UNATTRIBUTED_LIMIT:.0%})"
    ]


def unusable_laps(laps: List[Dict[str, Any]]) -> List[str]:
    """Problems that make a set of laps unusable, beyond failed queries."""
    problems = []
    for lap in laps:
        if not lap["samples"]:
            problems.append(f"lap {lap['lap']} of {lap['workload']} has no sample")
    return problems


def refuse_oversubscription(workloads: List[str]) -> None:
    nproc = os.cpu_count() or 1
    if harness.POOL_SIZE > nproc and any(w in POOL_WORKLOADS for w in workloads):
        sys.exit(
            f"refusing to measure: pool_size={harness.POOL_SIZE} workers on nproc={nproc}; "
            "numbers from an oversubscribed pool are not comparable"
        )


# ----------------------------------------------------------------------
# One workload, one JSON line (the form pairs of commits are compared in)
# ----------------------------------------------------------------------


def single_main(args: argparse.Namespace, manifest: Dict[str, Any]) -> int:
    refuse_oversubscription([args.workload])
    traced = args.trace == 1
    laps = [
        spawn_lap(
            args.workload,
            args.seed,
            lap,
            args.size,
            args.seconds / args.laps,
            traced,
            args.expected,
        )
        for lap in range(args.laps)
    ]
    problems = unusable_laps(laps)
    for problem in problems:
        print(problem, file=sys.stderr)
    attempted = sum(lap["attempted"] for lap in laps)
    failed = sum(lap["failed"] for lap in laps)
    for lap in laps:
        for failure in lap["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    if traced:
        values = per_layer(laps)
        listed = manifest["per_layer"]
        # Reported here; the full traced set and --self-check fail on it.
        for problem in unattributed_problems(args.workload, values):
            print(f"warning: {problem}", file=sys.stderr)
        if args.trace_out is not None:
            write_chrome_trace(args.trace_out, [lap["spans"] for lap in laps])
    else:
        values = end_to_end(laps)
        listed = manifest["end_to_end"]
    correct = failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    metric["name"]: {
                        "value": values.get(metric["name"], 0.0),
                        "unit": metric["unit"],
                    }
                    for metric in listed
                },
            }
        )
    )
    return 0 if correct else 1


def write_chrome_trace(path: Path, span_lists: List[List[List[Any]]]) -> None:
    """Every lap's spans as one Chrome trace, a lap per pid."""
    events = []
    for pid, spans in enumerate(span_lists):
        recorder = harness.Recorder()
        recorder.spans = spans
        events.extend(recorder.chrome_trace(pid=pid))
    harness.write_json(path, {"traceEvents": events, "displayTimeUnit": "ms"})


# ----------------------------------------------------------------------
# All workloads: the full set, printed and written out
# ----------------------------------------------------------------------


def run_set(
    names: List[str], args: argparse.Namespace, traced: bool
) -> Dict[str, Dict[str, Any]]:
    """Every workload's laps, interleaved: lap 0 of all, lap 1 of all, …"""
    collected: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        name: {"untraced": [], "traced": []} for name in names
    }
    share = args.seconds / args.laps
    for lap in range(args.laps):
        for name in names:
            print(f"  lap {lap + 1}/{args.laps} {name}", file=sys.stderr, flush=True)
            for mode in ("untraced", "traced") if traced else ("untraced",):
                collected[name][mode].append(
                    spawn_lap(
                        name, args.seed, lap, args.size, share,
                        mode == "traced", args.expected,
                    )  # fmt: skip
                )
    results: Dict[str, Dict[str, Any]] = {}
    for name, modes in collected.items():
        every = modes["untraced"] + modes["traced"]
        attempted = sum(lap["attempted"] for lap in every)
        failed = sum(lap["failed"] for lap in every)
        layers = per_layer(modes["traced"]) if traced else {}
        samples = [s for lap in modes["untraced"] for s in lap["samples"]]
        results[name] = {
            "end_to_end": end_to_end(modes["untraced"]),
            "verdict_s_quartiles": harness.quartiles(samples),
            "per_layer": layers,
            "samples": len(samples),
            "attempted": attempted,
            "failed": failed,
            "failed_share": harness.failed_share(attempted, failed),
            "failures": [f for lap in every for f in lap["failures"]],
            # (a --quick set has too few samples to hold the 5 % to)
            "problems": unusable_laps(every)
            + (unattributed_problems(name, layers) if args.size == "full" else []),
            "reference_verdicts": {
                key: value
                for lap in modes["untraced"]
                for key, value in lap["reference_verdicts"].items()
            },
            "laps": [
                {
                    key: lap[key]
                    for key in (
                        "lap", "traced", "passes", "setup_s", "peak_rss_mb",
                        "wall_s", "cpu_s", "host_slowdown", "attempted", "failed",
                    )
                }
                for lap in every
            ],  # fmt: skip
            "spans": [lap["spans"] for lap in modes["traced"]],
        }
    return results


def print_set(results: Dict[str, Dict[str, Any]], manifest: Dict[str, Any]) -> None:
    for name, result in results.items():
        q1, q3 = result["verdict_s_quartiles"]
        print(f"\n{name}  ({result['samples']} samples, "
              f"{result['failed']}/{result['attempted']} failed, "
              f"verdict_s quartiles {q1:.6g} .. {q3:.6g} s)")
        for metric in manifest["end_to_end"]:
            value = result["end_to_end"][metric["name"]]
            print(f"  {metric['name']:<34} {value:>14.6g} {metric['unit']}")
        for metric in manifest["per_layer"]:
            if metric["name"] in result["per_layer"]:
                value = result["per_layer"][metric["name"]]
                print(f"  {metric['name']:<34} {value:>14.6g} {metric['unit']}")
        for failure in result["failures"] + result["problems"]:
            print(f"  FAILED {failure}")


def set_passed(results: Dict[str, Dict[str, Any]]) -> bool:
    return all(r["failed"] == 0 and not r["problems"] for r in results.values())


def full_main(args: argparse.Namespace, manifest: Dict[str, Any]) -> int:
    names = [w["name"] for w in manifest["workloads"]]
    refuse_oversubscription(names)
    traced = args.trace == 1
    lap_plan = {
        "laps": args.laps,
        "seconds_per_lap": args.seconds / args.laps,
        "order": "interleaved: lap k of every workload before lap k+1",
        "size": args.size,
        "traced": traced,
    }
    results = run_set(names, args, traced)
    print_set(results, manifest)
    comparable = not args.quick and args.seconds == manifest["run_seconds"]
    if not comparable:
        print("\nreduced sizes or another --seconds: these numbers are NOT comparable")
    if args.write_expected:
        update_expected(args.seed, args.size, results)
    if args.trace_out is not None and traced:
        write_chrome_trace(
            args.trace_out,
            [spans for result in results.values() for spans in result["spans"]],
        )
    for result in results.values():
        del result["spans"]
    out = args.out or RESULTS_DIR / f"e2e-{args.size}-seed{args.seed}.json"
    harness.write_json(
        out,
        {
            "stamp": harness.stamp(ROOT, args.seed, lap_plan),
            "comparable": comparable,
            "workloads": results,
        },
    )
    print(f"\nwrote {out}")
    return 0 if set_passed(results) else 1


def update_expected(seed: int, size: str, results: Dict[str, Dict[str, Any]]) -> None:
    """Record the reference verdicts of this seed and size in expected.json."""
    from benchmarks.e2e import reference

    expected = reference.load_expected()
    if expected.get("seed") != seed:
        expected = {"seed": seed}
    expected[size] = {
        key: value
        for result in results.values()
        for key, value in sorted(result["reference_verdicts"].items())
    }
    harness.write_json(reference.EXPECTED_PATH, expected)
    print(f"recorded {len(expected[size])} verdicts in {reference.EXPECTED_PATH}")


# ----------------------------------------------------------------------
# Self-check: do two sets of the same code agree?
# ----------------------------------------------------------------------


def self_check_main(args: argparse.Namespace, manifest: Dict[str, Any]) -> int:
    names = [w["name"] for w in manifest["workloads"]]
    refuse_oversubscription(names)
    sets = [run_set(names, args, True) for _ in range(SETS)]
    ok = all(set_passed(results) for results in sets)
    print(f"{'metric':<20} {'workload':<16} {'spread':>8} {'bound':>7}  values")
    for metric in manifest["end_to_end"]:
        for name in names:
            values = [results[name]["end_to_end"][metric["name"]] for results in sets]
            low, high = min(values), max(values)
            spread = (high - low) / harness.median(values) if low else float("inf")
            within = spread <= metric["bound"]
            ok = ok and within
            print(
                f"{metric['name']:<20} {name:<16} {spread:>8.3f} {metric['bound']:>7.2f}"
                f"  {' '.join(f'{v:.5g}' for v in values)}"
                f"{'' if within else '   <-- outside its bound'}"
            )
    for name in names:
        for count in EXACT_COUNTS:
            values = {results[name]["per_layer"].get(count, 0) for results in sets}
            if len(values) != 1:
                ok = False
                print(f"count {count} on {name} differs between sets: {sorted(values)}")
    for results in sets:
        for name, result in results.items():
            for failure in result["failures"] + result["problems"]:
                print(f"FAILED {name}: {failure}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


# ----------------------------------------------------------------------


def parse_args(manifest: Dict[str, Any]) -> argparse.Namespace:
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names, help="measure one workload only")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(manifest["run_seconds"]),
        help="measured seconds per workload, split over the laps",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1 = the traced run: per-layer metrics (with --workload, instead of "
        "the end-to-end ones; for the full set, beside them)",
    )  # fmt: skip
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="the same as --trace 1")
    parser.add_argument("--trace-out", type=Path,
                        help="write the traced spans as Chrome trace_event JSON")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, one lap of one pass; numbers not comparable")
    parser.add_argument("--self-check", action="store_true",
                        help=f"run {SETS} full traced sets and compare them")
    parser.add_argument("--out", type=Path, help="result file of a full set")
    parser.add_argument("--expected", type=Path,
                        help="verdicts to check against instead of expected.json")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this set's reference verdicts in expected.json")
    args = parser.parse_args()
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    if args.expected is not None:
        args.expected = args.expected.resolve()  # laps run from the repository root
    # The lap plan follows from --quick alone; it is not a knob.
    args.size = "quick" if args.quick else "full"
    args.laps = 1 if args.quick else LAPS
    if args.quick:
        args.seconds = 0.0
    return args


def main() -> int:
    manifest = load_manifest()
    args = parse_args(manifest)
    if args.self_check:
        return self_check_main(args, manifest)
    if args.workload is not None:
        return single_main(args, manifest)
    return full_main(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
