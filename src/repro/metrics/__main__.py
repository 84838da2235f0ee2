"""Metrics CLI: ``python -m repro.metrics <subcommand>``.

Subcommands:

* ``table``   — per-metric min/max/last table from a JSONL export
* ``dash``    — ASCII sparkline dashboard (one row per metric)
* ``prom``    — Prometheus text exposition of one snapshot
* ``profile`` — run the C1 quick variant under the kernel profiler,
  print per-subsystem wall-time attribution, optionally write
  collapsed stacks for speedscope / flamegraph.pl

``python -m repro.experiments.gates metrics_export`` runs the instrumented
4-node call and checks its export.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import MetricsError
from repro.metrics.registry import render_prometheus
from repro.metrics.scraper import load_jsonl
from repro.metrics.render import render_dash, render_table


def _load(path: str):
    try:
        return load_jsonl(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot read metrics file: {exc}")
    except MetricsError as exc:
        raise SystemExit(f"error: malformed metrics file {path!r}: {exc}")


def _cmd_table(args: argparse.Namespace) -> int:
    sections = _load(args.metrics)
    print(render_table(sections, names=args.metric or None))
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    sections = _load(args.metrics)
    print(render_dash(sections, names=args.metric or None, width=args.width))
    return 0


def _cmd_prom(args: argparse.Namespace) -> int:
    sections = _load(args.metrics)
    fewest = min((len(s.snapshots) for s in sections if s.snapshots), default=0)
    if fewest and not -fewest <= args.index < fewest:
        raise SystemExit(
            f"error: --index {args.index} is out of range: a section has "
            f"{fewest} snapshots"
        )
    for section in sections:
        if not section.snapshots:
            continue
        snap = section.snapshots[args.index]
        body = {
            "counters": snap.counters,
            "gauges": snap.gauges,
            "histograms": snap.histograms,
        }
        if section.label:
            print(f"# section {section.label} t={snap.t:g}")
        sys.stdout.write(render_prometheus(body))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.city import run_city_workload
    from repro.metrics.profiler import CORE_SUBSYSTEMS, KernelProfiler

    profiler = KernelProfiler()
    result = run_city_workload(
        n_nodes=args.nodes, n_calls=args.calls, drain=15.0, seed=args.seed,
        profiler=profiler,
    )
    report = profiler.report()
    print(
        f"C1 quick variant: {result['nodes']} nodes, {result['calls']} calls, "
        f"{result['events']} events"
    )
    print(report.render(top=args.top))
    fraction = report.attributed_fraction(CORE_SUBSYSTEMS)
    print(
        f"\nattributed to core subsystems "
        f"({', '.join(sorted(CORE_SUBSYSTEMS))}): {fraction:.1%}"
    )
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(report.collapsed())
        print(f"[collapsed stacks written to {args.collapsed}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics",
        description="Analyze repro.metrics JSONL time-series exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tab = sub.add_parser("table", help="per-metric min/max/last table")
    p_tab.add_argument("metrics", help="metrics JSONL file")
    p_tab.add_argument(
        "--metric", action="append", default=[], help="metric name (repeatable)"
    )
    p_tab.set_defaults(fn=_cmd_table)

    p_dash = sub.add_parser("dash", help="ASCII sparkline dashboard")
    p_dash.add_argument("metrics", help="metrics JSONL file")
    p_dash.add_argument(
        "--metric", action="append", default=[], help="metric name (repeatable)"
    )
    p_dash.add_argument("--width", type=int, default=60, help="sparkline width")
    p_dash.set_defaults(fn=_cmd_dash)

    p_prom = sub.add_parser("prom", help="Prometheus text exposition of one snapshot")
    p_prom.add_argument("metrics", help="metrics JSONL file")
    p_prom.add_argument(
        "--index", type=int, default=-1,
        help="snapshot index within each section (default: last)",
    )
    p_prom.set_defaults(fn=_cmd_prom)

    p_prof = sub.add_parser(
        "profile", help="profile the C1 quick variant, print attribution"
    )
    p_prof.add_argument("--nodes", type=int, default=300)
    p_prof.add_argument("--calls", type=int, default=6)
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.add_argument("--top", type=int, default=20, help="handlers to list")
    p_prof.add_argument(
        "--collapsed", metavar="OUT.TXT",
        help="write collapsed stacks (speedscope / flamegraph.pl input)",
    )
    p_prof.set_defaults(fn=_cmd_profile)

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
