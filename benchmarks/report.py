"""Generate the paper-style evaluation report (Figure 10 series etc.).

pytest-benchmark gives statistically careful per-case timings; this
script complements it by printing the *series* form of Figure 10 —
one row per workload size with all systems side by side — so the
crossover structure is visible at a glance.

It is also the aggregation point for the persisted benchmark
artifacts: every ``BENCH_*.json`` in the repo root shares one schema
(``{"bench": str, "quick": bool, "python": str, "results": [dict]}``)
so successive PRs can diff them mechanically.  ``--check-bench``
validates all of them (CI runs this after each benchmark step) —
service rows additionally must carry the PR 5 warm-dispatch fields
(p99, cache hit rate, batch stats) — and the report folds
``BENCH_service.json`` into a summary table alongside the live sweeps.

``--check-scaling`` gates on the service pool sweep: throughput must
not *decrease* as the pool grows (beyond ``--scaling-tolerance``).
This is the regression the warm-dispatch scheduler exists to prevent — the
pre-PR-5 pool inverted (pool=4 slower than pool=1) because every
query paid a fresh round-trip and a cold model build.

``--record-history`` appends each run's trend metrics (every ``_ms``
and ``_qps`` field) to ``BENCH_history.jsonl``; ``--check-trend``
gates the current artifacts against the rolling per-metric median of
that history with suffix-specific tolerances — the perf-regression
sentry CI runs after each benchmark step.

Usage:  python benchmarks/report.py
            [--full | --check-bench | --check-scaling
             | --record-history | --check-trend [--warn-only]]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro import ZenFunction
from repro.backends import BddBackend, SatBackend
from repro.baselines import find_packet_matching_last_line
from repro.lang.listops import contains
from repro.network import Header, Route, acl_match_line, apply_route_map
from repro.workloads import random_acl, random_route_map

SEED = 2020

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The shared top-level schema every persisted benchmark artifact
#: (``BENCH_*.json``) must follow.
BENCH_SCHEMA = {"bench": str, "quick": bool, "python": str, "results": list}

#: Extra fields every row of a ``bench == "service"`` artifact must
#: carry since the warm-dispatch PR (numbers unless noted).
SERVICE_ROW_SCHEMA = {
    "pool_size": int,
    "queries": int,
    "p50_ms": (int, float),
    "p95_ms": (int, float),
    "p99_ms": (int, float),
    "throughput_qps": (int, float),
    "cache": dict,
    "batch": dict,
}

SERVICE_CACHE_KEYS = ("hit", "miss", "evict", "hit_rate")
SERVICE_BATCH_KEYS = ("batches", "mean_batch_size", "max_batch_size")

#: Extra fields every row of a ``bench == "overload"`` artifact must
#: carry since the overload-protection PR.
OVERLOAD_ROW_SCHEMA = {
    "overload": (int, float),
    "pool_size": int,
    "goodput_qps": (int, float),
    "baseline_p99_ms": (int, float),
    "shed_fraction": (int, float),
    "reject_fraction": (int, float),
    "interactive_p99_ratio": (int, float),
    "priorities": dict,
}

OVERLOAD_PRIORITY_KEYS = ("interactive", "batch", "fuzz")

#: Provenance a ``bench == "micro_bdd"`` artifact must carry under
#: ``stamp``: what machine and code produced the numbers.
STAMP_SCHEMA = {"nproc": int, "cpu_model": str, "git_sha": str}

#: Allowed fractional throughput drop between successive pool sizes
#: before --check-scaling complains.
DEFAULT_SCALING_TOLERANCE = 0.15


def _check_service_row(i: int, row: dict) -> list:
    problems = []
    for key, expected in SERVICE_ROW_SCHEMA.items():
        if key not in row:
            problems.append(f"results[{i}] missing service key {key!r}")
        elif not isinstance(row[key], expected) or isinstance(
            row[key], bool
        ):
            problems.append(
                f"results[{i}].{key} has wrong type "
                f"{type(row[key]).__name__}"
            )
    for sub, keys in (
        ("cache", SERVICE_CACHE_KEYS),
        ("batch", SERVICE_BATCH_KEYS),
    ):
        block = row.get(sub)
        if isinstance(block, dict):
            for key in keys:
                if key not in block:
                    problems.append(
                        f"results[{i}].{sub} missing key {key!r}"
                    )
    return problems


def _check_overload_row(i: int, row: dict) -> list:
    problems = []
    for key, expected in OVERLOAD_ROW_SCHEMA.items():
        if key not in row:
            problems.append(f"results[{i}] missing overload key {key!r}")
        elif not isinstance(row[key], expected) or isinstance(
            row[key], bool
        ):
            problems.append(
                f"results[{i}].{key} has wrong type "
                f"{type(row[key]).__name__}"
            )
    priorities = row.get("priorities")
    if isinstance(priorities, dict):
        for priority in OVERLOAD_PRIORITY_KEYS:
            block = priorities.get(priority)
            if not isinstance(block, dict):
                problems.append(
                    f"results[{i}].priorities missing class {priority!r}"
                )
            elif "p99_ms" not in block:
                problems.append(
                    f"results[{i}].priorities.{priority} missing 'p99_ms'"
                )
    return problems


def _check_stamp(data: dict) -> list:
    stamp = data.get("stamp")
    if not isinstance(stamp, dict):
        return ["missing object 'stamp' (nproc, cpu_model, git_sha)"]
    return [
        f"stamp.{key} must be {expected.__name__}"
        for key, expected in STAMP_SCHEMA.items()
        if not isinstance(stamp.get(key), expected)
    ]


def check_bench_file(path: Path) -> list:
    """Validate one BENCH_*.json against the shared schema.

    Returns a list of human-readable problems (empty = valid).
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        return [f"unreadable JSON: {error}"]
    if not isinstance(data, dict):
        return ["top level must be an object"]
    problems = []
    for key, expected in BENCH_SCHEMA.items():
        if key not in data:
            problems.append(f"missing key {key!r}")
        elif not isinstance(data[key], expected):
            problems.append(
                f"key {key!r} must be {expected.__name__}, got "
                f"{type(data[key]).__name__}"
            )
    if data.get("bench") == "micro_bdd":
        problems.extend(_check_stamp(data))
    results = data.get("results")
    if isinstance(results, list):
        if not results:
            problems.append("results must be non-empty")
        for i, row in enumerate(results):
            if not isinstance(row, dict):
                problems.append(f"results[{i}] must be an object")
            elif data.get("bench") == "service":
                problems.extend(_check_service_row(i, row))
            elif data.get("bench") == "overload":
                problems.extend(_check_overload_row(i, row))
    return problems


def check_bench_files(root: Path = REPO_ROOT) -> int:
    """Validate every BENCH_*.json under ``root``; returns #invalid."""
    paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json files under {root}")
        return 0
    bad = 0
    for path in paths:
        problems = check_bench_file(path)
        if problems:
            bad += 1
            print(f"{path.name}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{path.name}: ok")
    return bad


def check_scaling(
    root: Path = REPO_ROOT,
    tolerance: float = DEFAULT_SCALING_TOLERANCE,
    warn_only: bool = False,
) -> int:
    """Gate on BENCH_service.json throughput scaling with pool size.

    The pool-sweep rows (everything except the ``sustained`` scenario)
    must show non-decreasing throughput as ``pool_size`` grows — a
    larger pool may never fall more than ``tolerance`` (fractional)
    below the best throughput of any smaller pool.  Returns the number
    of violations (0 with ``warn_only``, which prints them as warnings
    instead of failing).
    """
    path = root / "BENCH_service.json"
    if not path.is_file():
        # Bootstrap: a fresh checkout (or a CI job that has not run
        # the service benchmark yet) has no prior artifact — that is
        # a clean pass, not a failure.
        print(
            f"check-scaling: no {path.name} artifact yet (bootstrap) — "
            "nothing to gate on, passing clean"
        )
        return 0
    problems = check_bench_file(path)
    if problems:
        print(f"check-scaling: {path.name} invalid: {'; '.join(problems)}")
        return 0 if warn_only else 1
    data = json.loads(path.read_text())
    sweep = sorted(
        (
            row
            for row in data["results"]
            if row.get("scenario", "mixed") != "sustained"
        ),
        key=lambda row: row["pool_size"],
    )
    if len(sweep) < 2:
        print("check-scaling: fewer than 2 pool sizes, nothing to check")
        return 0
    violations = 0
    best_qps = sweep[0]["throughput_qps"]
    best_pool = sweep[0]["pool_size"]
    print(
        f"check-scaling: {path.name} "
        f"({'quick' if data.get('quick') else 'full'} run, "
        f"tolerance {tolerance:.0%})"
    )
    for row in sweep[1:]:
        qps = row["throughput_qps"]
        floor = best_qps * (1.0 - tolerance)
        status = "ok"
        if qps < floor:
            violations += 1
            status = "WARN" if warn_only else "FAIL"
        print(
            f"  pool={row['pool_size']}: {qps:.0f} qps vs best "
            f"{best_qps:.0f} (pool={best_pool}) -> {status}"
        )
        if qps > best_qps:
            best_qps, best_pool = qps, row["pool_size"]
    if violations:
        print(
            f"check-scaling: throughput inverts with pool size "
            f"({violations} violation(s)) — the pool is doing "
            f"negative work"
        )
    else:
        print("check-scaling: throughput is monotone (within tolerance)")
    return 0 if warn_only else violations


# -- perf-regression sentry (--record-history / --check-trend) ----------

#: Rolling history of benchmark runs, one JSON line per artifact per
#: recorded run.  Committed to the repo so CI can gate against it.
HISTORY_NAME = "BENCH_history.jsonl"

#: Per-metric-suffix fractional tolerances for --check-trend.  ``_ms``
#: metrics are lower-is-better (flag when current > baseline * 1.5 —
#: generous enough for shared-runner noise, far below a 2x p99
#: regression); ``_qps`` metrics are higher-is-better (flag when
#: current < baseline * 0.7).
DEFAULT_TREND_TOLERANCES = {"_ms": 0.5, "_qps": 0.3}

#: Baselines below these floors are noise, not signal: a 0.3ms p50
#: doubling is scheduler jitter, not a regression.
TREND_MIN_BASELINE = {"_ms": 1.0, "_qps": 10.0}

#: How many most-recent matching history entries form the rolling
#: baseline (their per-metric median is the reference).
DEFAULT_TREND_BASELINE_N = 5


def _row_label(bench: str, row: dict) -> str:
    parts = [str(bench)]
    name = row.get("name") or row.get("scenario")
    if name:
        parts.append(str(name))
    if "pool_size" in row:
        parts.append(f"pool{row['pool_size']}")
    if "overload" in row:
        parts.append(f"x{row['overload']:g}")
    return ".".join(parts)


def _collect_trend(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _collect_trend(f"{prefix}.{key}", sub, out)
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return
    if prefix.endswith("_ms") or prefix.endswith("_qps"):
        out[prefix] = float(value)


def trend_metrics(data: dict) -> dict:
    """Extract the trend-gated metrics from one parsed artifact.

    Returns ``{metric_label: value}`` where every label ends in
    ``_ms`` (lower is better) or ``_qps`` (higher is better) — the
    two suffixes with unambiguous directionality.  Nested dicts
    (per-priority blocks, etc.) are flattened with dotted prefixes.
    """
    out: dict = {}
    bench = data.get("bench", "?")
    for row in data.get("results", []):
        if not isinstance(row, dict):
            continue
        label = _row_label(bench, row)
        for key, value in row.items():
            _collect_trend(f"{label}.{key}", value, out)
    return out


def _suffix_of(metric: str) -> str:
    return "_ms" if metric.endswith("_ms") else "_qps"


def record_history(root: Path = REPO_ROOT) -> int:
    """Append every current BENCH_*.json to the rolling history.

    One JSON line per artifact: bench name, quick flag, a wall-clock
    stamp, and the flat trend metrics.  Returns the number of entries
    appended.
    """
    entries = []
    for path in sorted(root.glob("BENCH_*.json")):
        if check_bench_file(path):
            print(f"record-history: skipping invalid {path.name}")
            continue
        data = json.loads(path.read_text())
        metrics = trend_metrics(data)
        if not metrics:
            continue
        entries.append(
            {
                "bench": data.get("bench"),
                "quick": bool(data.get("quick")),
                "recorded_unix": time.time(),
                "metrics": metrics,
            }
        )
    if entries:
        with (root / HISTORY_NAME).open("a", encoding="utf-8") as fp:
            for entry in entries:
                fp.write(json.dumps(entry, sort_keys=True) + "\n")
    print(
        f"record-history: appended {len(entries)} entr"
        f"{'y' if len(entries) == 1 else 'ies'} to {HISTORY_NAME}"
    )
    return len(entries)


def load_history(root: Path = REPO_ROOT) -> list:
    """Parse the history file; corrupt lines are skipped, not fatal."""
    path = root / HISTORY_NAME
    if not path.is_file():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict) and isinstance(
            entry.get("metrics"), dict
        ):
            entries.append(entry)
    return entries


def check_trend(
    root: Path = REPO_ROOT,
    baseline_n: int = DEFAULT_TREND_BASELINE_N,
    warn_only: bool = False,
    tolerances: dict = DEFAULT_TREND_TOLERANCES,
) -> int:
    """Gate current BENCH_*.json artifacts against the rolling baseline.

    For every metric in every current artifact, the baseline is the
    per-metric median over the last ``baseline_n`` history entries
    with the same (bench, quick) identity.  ``_ms`` metrics fail when
    the current value exceeds baseline * (1 + tolerance); ``_qps``
    metrics fail when it falls below baseline * (1 - tolerance).
    Bootstrap-safe: no history (or no matching entries, or a baseline
    under the noise floor) is a clean pass.  Returns the number of
    regressions (0 with ``warn_only``).
    """
    history = load_history(root)
    if not history:
        print(
            f"check-trend: no {HISTORY_NAME} yet (bootstrap) — "
            "nothing to gate on, passing clean"
        )
        return 0
    regressions = 0
    checked = 0
    for path in sorted(root.glob("BENCH_*.json")):
        if check_bench_file(path):
            continue
        data = json.loads(path.read_text())
        current = trend_metrics(data)
        matching = [
            entry
            for entry in history
            if entry.get("bench") == data.get("bench")
            and bool(entry.get("quick")) == bool(data.get("quick"))
        ][-baseline_n:]
        if not matching:
            print(
                f"check-trend: {path.name}: no matching history — "
                "skipping (bootstrap)"
            )
            continue
        for metric in sorted(current):
            samples = [
                entry["metrics"][metric]
                for entry in matching
                if isinstance(
                    entry["metrics"].get(metric), (int, float)
                )
            ]
            if not samples:
                continue
            baseline = statistics.median(samples)
            suffix = _suffix_of(metric)
            if baseline < TREND_MIN_BASELINE[suffix]:
                continue
            tolerance = tolerances[suffix]
            value = current[metric]
            checked += 1
            if suffix == "_ms":
                bad = value > baseline * (1.0 + tolerance)
                direction = "above"
                bound = baseline * (1.0 + tolerance)
            else:
                bad = value < baseline * (1.0 - tolerance)
                direction = "below"
                bound = baseline * (1.0 - tolerance)
            if bad:
                regressions += 1
                status = "WARN" if warn_only else "FAIL"
                print(
                    f"check-trend: {status} {metric}: {value:.2f} is "
                    f"{direction} the {'ceiling' if suffix == '_ms' else 'floor'} "
                    f"{bound:.2f} (baseline {baseline:.2f} over "
                    f"{len(samples)} run(s))"
                )
    print(
        f"check-trend: {checked} metric(s) checked, "
        f"{regressions} regression(s)"
    )
    return 0 if warn_only else regressions


def service_summary(root: Path = REPO_ROOT) -> None:
    """Fold BENCH_service.json (if present) into the printed report."""
    path = root / "BENCH_service.json"
    if not path.is_file():
        return
    problems = check_bench_file(path)
    if problems:
        print(f"\n{path.name} present but invalid: {'; '.join(problems)}")
        return
    data = json.loads(path.read_text())
    mode = "quick" if data.get("quick") else "full"
    print(f"\nQuery service ({path.name}, {mode} run):")
    print(
        f"{'scenario':>10} {'pool':>6} {'p50_ms':>9} {'p95_ms':>9} "
        f"{'p99_ms':>9} {'qps':>9} {'hit%':>6} "
        f"{'fault_survivors':>16} {'restarts':>9}"
    )
    for row in data["results"]:
        fault = row.get("fault_round", {})
        if fault:
            survivors = (
                f"{fault.get('survivors', '?')}/{fault.get('queries', '?')}"
            )
            restarts = fault.get("worker_restarts", 0)
        else:
            survivors = "-"
            restarts = row.get("worker_restarts", 0)
        hit_rate = row.get("cache", {}).get("hit_rate", 0.0)
        print(
            f"{row.get('scenario', 'mixed'):>10} "
            f"{row.get('pool_size', '?'):>6} "
            f"{row.get('p50_ms', 0.0):>9.2f} "
            f"{row.get('p95_ms', 0.0):>9.2f} "
            f"{row.get('p99_ms', 0.0):>9.2f} "
            f"{row.get('throughput_qps', 0.0):>9.0f} "
            f"{hit_rate * 100:>6.1f} "
            f"{survivors:>16} "
            f"{restarts:>9}"
        )


def overload_summary(root: Path = REPO_ROOT) -> None:
    """Fold BENCH_overload.json (if present) into the printed report."""
    path = root / "BENCH_overload.json"
    if not path.is_file():
        return
    problems = check_bench_file(path)
    if problems:
        print(f"\n{path.name} present but invalid: {'; '.join(problems)}")
        return
    data = json.loads(path.read_text())
    mode = "quick" if data.get("quick") else "full"
    print(f"\nOverload protection ({path.name}, {mode} run):")
    print(
        f"{'scenario':>16} {'pool':>5} {'goodput':>8} {'shed%':>6} "
        f"{'rej%':>6} {'i_p99_ms':>9} {'ratio':>6}"
    )
    for row in data["results"]:
        interactive = row.get("priorities", {}).get("interactive", {})
        print(
            f"{row.get('scenario', '?'):>16} "
            f"{row.get('pool_size', '?'):>5} "
            f"{row.get('goodput_qps', 0.0):>8.1f} "
            f"{row.get('shed_fraction', 0.0) * 100:>6.1f} "
            f"{row.get('reject_fraction', 0.0) * 100:>6.1f} "
            f"{interactive.get('p99_ms', 0.0):>9.1f} "
            f"{row.get('interactive_p99_ratio', 0.0):>6.2f}"
        )


def print_backend_stats(bdd_backend: BddBackend, sat_backend: SatBackend) -> None:
    """Op-level counters accumulated over a series sweep.

    The BDD side reports per-kernel cache hit rates and the peak node
    count (the apply/and_exists/quantify kernels each keep their own
    cache); the SAT side reports CDCL counters summed across solves.
    """
    print("  bdd:", bdd_backend.manager.stats().summary())
    sat = sat_backend.statistics
    print(
        "  sat: solves={solves} conflicts={conflicts} "
        "decisions={decisions} propagations={propagations} "
        "learned={learned}".format(**sat)
    )


def timed(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def acl_series(sizes, repeats: int) -> None:
    print("\nFigure 10 (left): ACL verification, time in ms")
    print(f"{'lines':>7} {'zen_bdd':>9} {'zen_sat':>9} {'batfish':>9}")
    # Timing uses fresh (string) backends per call so every repeat is
    # cold; the instance backends below accumulate op-level statistics
    # across the whole sweep via one extra untimed pass per size.
    bdd_backend = BddBackend()
    sat_backend = SatBackend()
    for lines in sizes:
        acl = random_acl(lines, seed=SEED)
        f = ZenFunction(
            lambda h: acl_match_line(acl, h), [Header], name="acl"
        )
        last = len(acl.rules)

        t_bdd = timed(
            lambda: f.find(lambda h, r: r == last, backend="bdd"), repeats
        )
        t_sat = timed(
            lambda: f.find(lambda h, r: r == last, backend="sat"), repeats
        )
        t_base = timed(
            lambda: find_packet_matching_last_line(acl), repeats
        )
        f.find(lambda h, r: r == last, backend=bdd_backend)
        f.find(lambda h, r: r == last, backend=sat_backend)
        print(
            f"{lines:>7} {t_bdd * 1000:>9.1f} {t_sat * 1000:>9.1f} "
            f"{t_base * 1000:>9.1f}"
        )
    print_backend_stats(bdd_backend, sat_backend)


def routemap_series(sizes, repeats: int) -> None:
    print("\nFigure 10 (right): route-map verification, time in ms")
    print(f"{'lines':>7} {'zen_bdd':>9} {'zen_sat':>9}   (structural query)")
    bdd_backend = BddBackend()
    sat_backend = SatBackend()
    for lines in sizes:
        rm = random_route_map(lines, seed=SEED)
        f = ZenFunction(
            lambda r: apply_route_map(rm, r), [Route], name="rm"
        )

        def query(backend):
            return f.find(
                lambda r, out: out.has_value()
                & contains(out.value().communities, 0)
                & (out.value().local_pref >= 100),
                backend=backend,
                max_list_length=4,
            )

        t_bdd = timed(lambda: query("bdd"), repeats)
        t_sat = timed(lambda: query("sat"), repeats)
        query(bdd_backend)
        query(sat_backend)
        print(f"{lines:>7} {t_bdd * 1000:>9.1f} {t_sat * 1000:>9.1f}")
    print_backend_stats(bdd_backend, sat_backend)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="run the larger sweeps"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check-bench",
        action="store_true",
        help="validate all BENCH_*.json artifacts against the shared "
        "schema and exit (non-zero on any invalid file)",
    )
    parser.add_argument(
        "--check-scaling",
        action="store_true",
        help="gate on BENCH_service.json throughput being monotone "
        "(non-decreasing) in pool size and exit",
    )
    parser.add_argument(
        "--scaling-tolerance",
        type=float,
        default=DEFAULT_SCALING_TOLERANCE,
        help="allowed fractional throughput drop vs the best smaller "
        "pool before --check-scaling flags it (default 0.15)",
    )
    parser.add_argument(
        "--record-history",
        action="store_true",
        help=f"append every current BENCH_*.json to {HISTORY_NAME} "
        "and exit",
    )
    parser.add_argument(
        "--check-trend",
        action="store_true",
        help="gate current BENCH_*.json metrics against the rolling "
        f"{HISTORY_NAME} baseline and exit (non-zero on regression)",
    )
    parser.add_argument(
        "--trend-baseline",
        type=int,
        default=DEFAULT_TREND_BASELINE_N,
        help="history entries per (bench, quick) forming the rolling "
        f"baseline median (default {DEFAULT_TREND_BASELINE_N})",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="with --check-scaling / --check-trend: report violations "
        "but exit 0 (for noisy CI runners)",
    )
    args = parser.parse_args()
    if not 0.0 <= args.scaling_tolerance < 1.0:
        parser.error("--scaling-tolerance must be in [0, 1)")
    if args.trend_baseline < 1:
        parser.error("--trend-baseline must be >= 1")
    if args.check_bench:
        sys.exit(1 if check_bench_files() else 0)
    if args.check_scaling:
        sys.exit(
            1
            if check_scaling(
                tolerance=args.scaling_tolerance,
                warn_only=args.warn_only,
            )
            else 0
        )
    if args.record_history:
        record_history()
        sys.exit(0)
    if args.check_trend:
        sys.exit(
            1
            if check_trend(
                baseline_n=args.trend_baseline,
                warn_only=args.warn_only,
            )
            else 0
        )
    if args.full:
        acl_sizes = [125, 250, 500, 1000, 2000]
        rm_sizes = [20, 40, 60, 80, 100]
    else:
        acl_sizes = [50, 100, 200, 400]
        rm_sizes = [20, 60, 100]
    acl_series(acl_sizes, args.repeats)
    routemap_series(rm_sizes, args.repeats)
    service_summary()
    overload_summary()


if __name__ == "__main__":
    main()
