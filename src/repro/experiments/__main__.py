"""Command-line entry point: regenerate the paper's evaluation tables.

Usage::

    python -m repro.experiments              # every artifact
    python -m repro.experiments E1 T1        # selected artifacts
    python -m repro.experiments --full       # larger parameter sets, where they exist
    python -m repro.experiments --list

Each table is followed by a ``FAIL <table>: <failure>`` line for each way
it misses the shape its artifact's check asks for; the exit status is 1
when any check failed.
"""

from __future__ import annotations

import argparse
import sys

import repro.metrics as metrics
import repro.trace as trace
from repro.experiments.artifacts import ARTIFACTS, table_runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation tables.",
    )
    parser.add_argument("artifacts", nargs="*", help="artifact ids (default: all)")
    parser.add_argument(
        "--full", action="store_true", help="larger parameter sets, where they exist"
    )
    parser.add_argument("--list", action="store_true", help="list artifacts and exit")
    parser.add_argument(
        "--trace",
        metavar="OUT.JSONL",
        help="trace every scenario the selected artifacts build and write the "
        "combined JSONL here (analyze with python -m repro.trace)",
    )
    parser.add_argument(
        "--metrics",
        metavar="OUT.JSONL",
        help="scrape sim-time metrics from every scenario the selected "
        "artifacts build and write the combined JSONL here (analyze with "
        "python -m repro.metrics)",
    )
    parser.add_argument(
        "--metrics-interval",
        type=metrics.interval_arg,
        default=1.0,
        metavar="SECONDS",
        help="sim-seconds between metric snapshots (default: 1.0)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for key, artifact in ARTIFACTS.items():
            print(f"{key:4} {artifact.description}")
        return 0

    selected = [a.upper() for a in args.artifacts] or list(ARTIFACTS)
    unknown = [a for a in selected if a not in ARTIFACTS]
    if unknown:
        print(f"unknown artifacts: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ARTIFACTS)}", file=sys.stderr)
        return 2

    if args.trace:
        trace.enable_default()
    if args.metrics:
        metrics.enable_default(args.metrics_interval)
    failed = False
    try:
        for key in selected:
            artifact = ARTIFACTS[key]
            for name, run in table_runs(key, args.full).items():
                result = run()
                print(result)
                print(f"[{name}: {artifact.description}]")
                for failure in artifact.check(result) if artifact.check else ():
                    failed = True
                    print(f"FAIL {name}: {failure}")
                print()
        if args.trace:
            count = trace.export_registered(args.trace)
            print(f"[trace: {count} events written to {args.trace}]")
        if args.metrics:
            count = metrics.export_registered(args.metrics)
            print(f"[metrics: {count} snapshots written to {args.metrics}]")
    finally:
        if args.trace:
            trace.disable_default()
        if args.metrics:
            metrics.disable_default()
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
