"""Command-line interface.

Three subcommands::

    threeway run --config cfg.json --out results/ [--strict]
    threeway thresholds --config cfg.json --t 1.5
    threeway validate --config cfg.json

``run`` sweeps the configured time grid and writes thresholds.csv,
regions.csv, and summary.txt.  ``thresholds`` prints the thresholds at
one time value as JSON.  ``validate`` checks the configuration schema
and the loss orderings at the grid endpoints.

Exit codes: 0 on success, 1 for configuration or dataset problems, 2
for a per-t computation failure (strict-mode stop, or a failing
``thresholds`` evaluation).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .config import ConfigError, RunConfig
from .sweep import (
    DatasetError,
    StrictSweepError,
    check_ordering,
    emit_outputs,
    run_sweep,
    thresholds_at,
)
from .thresholds import PointPair

__all__ = ["main"]

_PER_T_FAILURES = (ArithmeticError, ValueError)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = RunConfig.load(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = run_sweep(config, strict=True if args.strict else None)
    except (ConfigError, DatasetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StrictSweepError as exc:
        print(f"strict mode stop: {exc}", file=sys.stderr)
        return 2
    try:
        emit_outputs(rows, args.out)
    except OSError as exc:
        print(f"config error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    print(f"wrote thresholds.csv, regions.csv, summary.txt to {args.out}")
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    try:
        config = RunConfig.load(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if not math.isfinite(args.t):
        print(f"config error: --t must be finite, got {args.t!r}", file=sys.stderr)
        return 1
    try:
        result, degenerate = thresholds_at(config, args.t)
    except _PER_T_FAILURES as exc:
        print(f"failure at t={args.t!r}: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, PointPair):
        payload = {
            "t": args.t,
            "type": "point",
            "alpha": result.alpha,
            "beta": result.beta,
            "degenerate": degenerate,
        }
    else:
        payload = {
            "t": args.t,
            "type": "band",
            "alpha_lo": result.alpha_lo,
            "alpha_hi": result.alpha_hi,
            "beta_lo": result.beta_lo,
            "beta_hi": result.beta_hi,
        }
    print(json.dumps(payload))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        config = RunConfig.load(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    grid = config.time_grid
    last = grid.count - 1
    endpoints = (0,) if last == 0 else (0, last)
    problems: list[str] = []
    for t in map(grid.point, endpoints):
        try:
            problems.extend(check_ordering(config, t))
        except _PER_T_FAILURES as exc:
            problems.append(f"evaluation failure at t={t!r}: {exc}")
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    print("config ok")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threeway",
        description="Three-way decisions from time-dependent loss functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="sweep the time grid and write output files")
    run_parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    run_parser.add_argument("--out", required=True, help="output directory (created if missing)")
    run_parser.add_argument(
        "--strict",
        action="store_true",
        help="stop with exit code 2 at the first per-t failure",
    )
    run_parser.set_defaults(func=_cmd_run)

    thresholds_parser = sub.add_parser(
        "thresholds", help="print thresholds at one time value as JSON"
    )
    thresholds_parser.add_argument("--config", required=True)
    thresholds_parser.add_argument("--t", required=True, type=float, help="time value")
    thresholds_parser.set_defaults(func=_cmd_thresholds)

    validate_parser = sub.add_parser(
        "validate", help="check the config schema and orderings at the grid endpoints"
    )
    validate_parser.add_argument("--config", required=True)
    validate_parser.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
