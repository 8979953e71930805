"""Command-line entry points of the differential fuzz farm.

``python -m repro.fuzz run``    — run a seeded campaign; exit 1 when
any unexplained failure was found (artifacts are written for each).

``python -m repro.fuzz replay`` — re-run a repro artifact's minimized
scenario; exit 0 when the recorded failure reproduces.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..core.budget import Budget
from .farm import (
    DEFAULT_BUDGET,
    VERDICT_LABELS,
    FarmConfig,
    replay_artifact,
    run_farm,
)
from .reference import KNOWN_BUGS
from .scenario import SCENARIO_KINDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential fuzzing farm (SAT vs BDD vs concrete "
        "vs reference)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded fuzz campaign")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--count", type=int, default=200)
    run.add_argument(
        "--kinds",
        default=",".join(SCENARIO_KINDS),
        help="comma-separated scenario kinds "
        f"(default: {','.join(SCENARIO_KINDS)})",
    )
    run.add_argument(
        "--inject-bug",
        default=None,
        choices=sorted(KNOWN_BUGS),
        help="plant a named reference-interpreter bug (canary mode)",
    )
    run.add_argument("--probe-count", type=int, default=8)
    run.add_argument(
        "--deadline-s",
        type=float,
        default=DEFAULT_BUDGET.deadline_s,
        help="per-query cooperative budget deadline",
    )
    run.add_argument(
        "--service-every",
        type=int,
        default=8,
        help="route every Nth scenario through the QueryEngine "
        "(0 = never, 1 = always); topology scenarios run in process",
    )
    run.add_argument("--pool-size", type=int, default=2)
    run.add_argument("--timeout-s", type=float, default=30.0)
    run.add_argument(
        "--chaos-every",
        type=int,
        default=0,
        help="inject a worker fault before every Nth service-routed "
        "scenario (0 = never)",
    )
    run.add_argument(
        "--chaos-kinds",
        default="kill,stall",
        help="comma-separated fault kinds for --chaos-every "
        "(kill, stall, oom)",
    )
    run.add_argument("--max-failures", type=int, default=5)
    run.add_argument("--shrink-checks", type=int, default=300)
    run.add_argument(
        "--wall-budget",
        type=float,
        default=None,
        help="stop generating after this many seconds",
    )
    run.add_argument(
        "--artifact-dir",
        default=None,
        help="write a JSON repro artifact per failure into this directory",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="print the campaign summary as JSON on stdout",
    )
    run.add_argument("--quiet", action="store_true")

    replay = sub.add_parser(
        "replay", help="re-run a repro artifact's minimized scenario"
    )
    replay.add_argument("artifact", help="path to a fuzz-failure artifact")
    replay.add_argument("--json", action="store_true")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    kinds = tuple(k for k in args.kinds.split(",") if k)
    config = FarmConfig(
        seed=args.seed,
        count=args.count,
        kinds=kinds,
        inject_bug=args.inject_bug,
        probe_count=args.probe_count,
        budget=Budget(
            deadline_s=args.deadline_s,
            max_conflicts=DEFAULT_BUDGET.max_conflicts,
            max_bdd_nodes=DEFAULT_BUDGET.max_bdd_nodes,
        ),
        timeout_s=args.timeout_s,
        service_every=args.service_every,
        pool_size=args.pool_size,
        max_failures=args.max_failures,
        shrink_checks=args.shrink_checks,
        wall_budget_s=args.wall_budget,
        chaos_every=args.chaos_every,
        chaos_kinds=tuple(
            k for k in args.chaos_kinds.split(",") if k
        ),
    )
    progress = None if args.quiet else lambda message: print(
        f"[fuzz] {message}", file=sys.stderr
    )
    result = run_farm(
        config, artifact_dir=args.artifact_dir, progress=progress
    )
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"checked {summary['checked']} scenarios "
            f"(seed {summary['seed']}): {summary['clean']} clean, "
            f"{summary['explained']} explained, "
            f"{summary['failed']} failed"
            + (" [truncated]" if summary["truncated"] else "")
        )
        if summary["chaos_injected"]:
            faults = ", ".join(
                f"{kind}x{n}"
                for kind, n in sorted(summary["chaos_faults"].items())
            )
            print(
                f"  chaos: {summary['chaos_injected']} faults injected"
                f" ({faults}); {summary['chaos_absorbed']}"
                f" transport failures absorbed"
            )
        for kind, tally in sorted(summary["verdicts"].items()):
            print(
                f"  {kind}: "
                + ", ".join(
                    f"{tally[label]} {label}"
                    for label in VERDICT_LABELS
                    if label in tally
                )
            )
        for signature, count in summary["signatures"].items():
            print(f"  {signature}: {count}")
        for path in summary["artifacts"]:
            print(f"  artifact: {path}")
    return 0 if result.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    reproduced, report = replay_artifact(args.artifact)
    payload = {
        "artifact": args.artifact,
        "reproduced": reproduced,
        "signature": list(report.signature or ()),
        "detail": report.detail,
        "explained": report.explained,
        "probes_checked": report.probes_checked,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif reproduced:
        print(
            f"reproduced {'/'.join(payload['signature'])}: "
            f"{report.detail}"
        )
    else:
        print(
            f"did NOT reproduce (got "
            f"{'/'.join(payload['signature']) or 'clean'}"
            f"{', explained ' + report.explained if report.explained else ''})"
        )
    return 0 if reproduced else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
