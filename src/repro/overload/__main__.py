"""Overload CLI: ``python -m repro.overload <subcommand>``.

Subcommands:

* ``sweep`` — run the full offered-load sweep, print the report; exits
  nonzero unless the controlled curve degrades gracefully (success at
  twice the knee load holds >= 50 % of the at-knee rate)

``python -m repro.experiments.gates overload_sweep`` runs the reduced sweep
and checks its overload invariants.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from repro.metrics.scraper import interval_arg
from repro.overload.harness import OverloadConfig, run_sweep


def _positive_load(text: str) -> float:
    load = float(text)
    if not (load > 0 and math.isfinite(load)):
        raise argparse.ArgumentTypeError(f"offered load must be a positive rate, got {text}")
    return load


def _cmd_sweep(args: argparse.Namespace) -> int:
    import repro.metrics as metrics

    cfg = OverloadConfig(seed=args.seed, routing=args.routing)
    if args.loads:
        cfg.loads = tuple(args.loads)
    if args.metrics:
        metrics.enable_default(args.metrics_interval)
    try:
        report = run_sweep(cfg)
        if args.metrics:
            count = metrics.export_registered(args.metrics)
            print(f"[metrics: {count} snapshots written to {args.metrics}]")
    finally:
        if args.metrics:
            metrics.disable_default()
    print(report.render(), end="")
    return 0 if report.graceful_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.overload",
        description="Offered-load soak: overload control and graceful degradation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser(
        "sweep", help="run the offered-load sweep, print the report"
    )
    p_sweep.add_argument("--seed", type=int, default=7)
    p_sweep.add_argument("--routing", choices=("aodv", "olsr"), default="aodv")
    p_sweep.add_argument(
        "--loads",
        type=_positive_load,
        nargs="+",
        metavar="CPS",
        help="offered call rates to sweep (default: 0.5 1 2 4)",
    )
    p_sweep.add_argument(
        "--metrics",
        metavar="OUT.JSONL",
        help="scrape sim-time metrics from every sweep point (one labelled "
        "section per point) and write the combined JSONL here",
    )
    p_sweep.add_argument(
        "--metrics-interval",
        type=interval_arg,
        default=1.0,
        metavar="SECONDS",
        help="sim-seconds between metric snapshots (default: 1.0)",
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(141)
