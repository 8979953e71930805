"""Command-line entry points for operational observability.

``python -m repro.obs status [path]`` — render the live engine status
written by an engine configured with ``status_file=``.  The path
defaults to ``$REPRO_STATUS_FILE`` or ``engine-status.json``.

``python -m repro.obs show <bundle>`` — inspect a flight-recorder
debug bundle captured on a trigger (crash loop, breaker open, backend
disagreement, fuzz finding).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .recorder import load_bundle, render_bundle
from .status import DEFAULT_STATUS_FILE, read_status_file, render_status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="operational observability: live status + debug bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    status = sub.add_parser(
        "status", help="render a live engine status file"
    )
    status.add_argument(
        "path",
        nargs="?",
        default=None,
        help="status file written by an engine with status_file="
        f" (default: $REPRO_STATUS_FILE or {DEFAULT_STATUS_FILE})",
    )
    status.add_argument("--json", action="store_true")

    show = sub.add_parser(
        "show", help="inspect a flight-recorder debug bundle"
    )
    show.add_argument("bundle", help="path to a debug-bundle JSON file")
    show.add_argument("--json", action="store_true")
    return parser


def _cmd_status(args: argparse.Namespace) -> int:
    path = args.path or os.environ.get(
        "REPRO_STATUS_FILE", DEFAULT_STATUS_FILE
    )
    try:
        status = read_status_file(path)
    except FileNotFoundError:
        print(
            f"no status file at {path} — start an engine with "
            "status_file= or pass the path explicitly",
            file=sys.stderr,
        )
        return 1
    except (ValueError, TypeError) as exc:
        print(f"unreadable status file {path}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_status(status))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    try:
        bundle = load_bundle(args.bundle)
    except FileNotFoundError:
        print(f"no bundle at {args.bundle}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(bundle, indent=2, sort_keys=True, default=str))
    else:
        print(render_bundle(bundle))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "status":
        return _cmd_status(args)
    return _cmd_show(args)


if __name__ == "__main__":
    sys.exit(main())
