"""Benchmark overload protection: goodput and tail latency under storms.

Drives the :mod:`repro.service.chaos` storm harness at 2x / 5x / 10x
of pool capacity and records, per overload factor:

* ``goodput_qps`` — completed queries per second of wall clock (the
  admission controller's job is to keep this pinned near capacity no
  matter the arrival rate);
* ``baseline_p99_ms`` / per-priority ``p99_ms`` — unloaded
  interactive p99 measured first on a warm pool, then the same
  percentile per priority class during the storm.
  ``interactive_p99_ratio`` is the acceptance number: interactive
  tail latency divided by the unloaded baseline;
* ``shed_fraction`` / ``reject_fraction`` — how much admitted work
  was load-shed and how many arrivals were fast-rejected at the door
  (structured backpressure, never hangs).

Emits ``BENCH_overload.json`` in the shared ``BENCH_*.json`` schema
(``benchmarks/report.py --check-bench`` validates it).

Usage:  PYTHONPATH=src python benchmarks/bench_overload.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

from repro.service.chaos import OverloadScenario, run_overload


def storm_row(overload: float, quick: bool, bundle_dir=None) -> dict:
    scenario = OverloadScenario(
        overload=overload,
        pool_size=2 if quick else 4,
        duration_s=0.8 if quick else 1.5,
        task_ms=40.0,
        interactive_fraction=0.05,
        batch_fraction=0.55,
        queue_depth=32 if quick else 64,
        baseline_queries=15 if quick else 30,
        seed=7,
    )
    engine_kwargs = (
        {"bundle_dir": str(bundle_dir)} if bundle_dir is not None else None
    )
    report = run_overload(scenario, engine_kwargs=engine_kwargs)
    return {
        "scenario": f"storm-{overload:g}x",
        "overload": overload,
        "pool_size": scenario.pool_size,
        "arrival_qps": report["scenario"]["arrival_qps"],
        "capacity_qps": report["scenario"]["capacity_qps"],
        "baseline_p99_ms": report["baseline_p99_ms"],
        "priorities": report["priorities"],
        "goodput_qps": report["goodput_qps"],
        "shed_fraction": report["shed_fraction"],
        "reject_fraction": report["reject_fraction"],
        "interactive_p99_ratio": report["interactive_p99_ratio"],
        "deadline_expired": report["deadline_expired"],
        "worker_restarts": report["worker_restarts"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small storms (CI chaos job)"
    )
    parser.add_argument(
        "--overloads", type=float, nargs="+", default=[2.0, 5.0, 10.0],
        help="overload factors (multiples of pool capacity) to sweep",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_overload.json",
    )
    parser.add_argument(
        "--bundle-dir",
        type=Path,
        default=None,
        help="capture flight-recorder debug bundles (breaker trips, "
        "crash loops, ...) into this directory during the storms",
    )
    args = parser.parse_args()
    if not args.out.parent.is_dir():
        parser.error(f"--out directory does not exist: {args.out.parent}")
    if any(factor <= 0 for factor in args.overloads):
        parser.error("--overloads entries must be > 0")

    results = [
        storm_row(factor, args.quick, bundle_dir=args.bundle_dir)
        for factor in args.overloads
    ]

    report = {
        "bench": "overload",
        "quick": args.quick,
        "python": platform.python_version(),
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"{'scenario':>16} {'pool':>5} {'goodput':>8} {'shed%':>6}"
        f" {'rej%':>6} {'i_p99':>8} {'ratio':>6}"
    )
    for row in results:
        interactive = row["priorities"]["interactive"]
        print(
            f"{row['scenario']:>16} {row['pool_size']:>5}"
            f" {row['goodput_qps']:>8.1f}"
            f" {row['shed_fraction'] * 100:>6.1f}"
            f" {row['reject_fraction'] * 100:>6.1f}"
            f" {interactive['p99_ms']:>8.1f}"
            f" {row['interactive_p99_ratio']:>6.2f}"
        )
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
