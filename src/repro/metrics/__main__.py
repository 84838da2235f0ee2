"""Metrics CLI: ``python -m repro.metrics <subcommand>``.

Subcommands:

* ``table``   — per-metric min/max/last table from a JSONL export
* ``dash``    — ASCII sparkline dashboard (one row per metric)
* ``prom``    — Prometheus text exposition of one snapshot
* ``profile`` — run the C1 quick variant under the kernel profiler,
  print per-subsystem wall-time attribution, optionally write
  collapsed stacks for speedscope / flamegraph.pl
* ``smoke``   — determinism gate: same-seed fresh-process exports must
  be byte-identical, and enabling metrics must change neither the event
  schedule nor any Stats counter (the ``tools/check.sh`` gate)
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from repro.errors import MetricsError
from repro.metrics.registry import render_prometheus
from repro.metrics.scraper import load_jsonl
from repro.metrics.render import render_dash, render_table, summarize_sections

#: The smoke workload: a 3-hop chain with bounded TX queues and one call,
#: scraped every half sim-second. Small enough to run three times in the
#: gate, busy enough that gauges actually move.
_SMOKE_SCRIPT = """
import sys
from repro.scenarios import ManetConfig, ManetScenario

scenario = ManetScenario(ManetConfig(
    n_nodes=4, seed=7, metrics=True, metrics_interval=0.5, tx_queue_capacity=8,
))
scenario.start()
scenario.add_phone(0, "alice")
scenario.add_phone(3, "bob")
scenario.converge()
scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=3.0)
scenario.stop()
sys.stdout.write(scenario.metrics.export_text())
"""


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


def _run_smoke_in_fresh_process() -> str:
    # Protocol identifiers (Call-ID, Via branch, packet uid) come from
    # process-global counters, so — like the trace/faults/overload smokes —
    # the byte-identity contract is between fresh interpreters.
    result = subprocess.run(
        [sys.executable, "-c", _SMOKE_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ),
    )
    return result.stdout


def _cmd_smoke(args: argparse.Namespace) -> int:
    """Determinism gate: byte-identical exports, no observer effect."""
    from repro.globalstate import registry as global_registry
    from repro.scenarios import ManetConfig, ManetScenario

    failures: list[str] = []

    # 1. Same-seed exports from two fresh interpreters are byte-identical.
    try:
        export_a = _run_smoke_in_fresh_process()
        export_b = _run_smoke_in_fresh_process()
    except subprocess.CalledProcessError as exc:
        failures.append(f"fresh-process metrics run crashed: {exc.stderr[-300:]}")
        export_a = export_b = ""
    else:
        if not export_a.strip():
            failures.append("fresh-process metrics run produced no export")
        if export_a != export_b:
            failures.append("same-seed fresh-process metrics exports differ")

    # 2. The export parses and the snapshots carry the standard gauges.
    snapshots = 0
    if export_a:
        import io

        try:
            sections = load_jsonl(io.StringIO(export_a))
        except MetricsError as exc:
            failures.append(f"smoke export failed schema validation: {exc}")
        else:
            snapshots = sum(len(section.snapshots) for section in sections)
            if snapshots == 0:
                failures.append("smoke export contains no snapshots")
            else:
                last = sections[0].snapshots[-1]
                for expected in ("txqueue.depth.sum", "routing.routes.sum"):
                    if expected not in last.gauges:
                        failures.append(f"gauge {expected} missing from export")
                if render_prometheus(
                    {"counters": last.counters, "gauges": last.gauges,
                     "histograms": last.histograms}
                ).strip() == "":
                    failures.append("Prometheus exposition rendered empty")

    # 3. No observer effect: metrics on vs off — identical Stats summary,
    #    identical event schedule (processed count and sequence counter).
    #    In-process reruns need the global ID counters reset to realign.
    def run_once(metrics_on: bool):
        global_registry.reset_all()
        scenario = ManetScenario(ManetConfig(
            n_nodes=4, seed=7, metrics=metrics_on, metrics_interval=0.5,
            tx_queue_capacity=8,
        ))
        scenario.start()
        scenario.add_phone(0, "alice")
        scenario.add_phone(3, "bob")
        scenario.converge()
        scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=3.0)
        scenario.stop()
        return (
            scenario.stats.summary(),
            scenario.sim.events_processed,
            scenario.sim.seq,
        )

    stats_on, events_on, seq_on = run_once(True)
    stats_off, events_off, seq_off = run_once(False)
    if stats_on != stats_off:
        failures.append("enabling metrics changed the Stats summary")
    if events_on != events_off:
        failures.append(
            f"enabling metrics changed the event schedule "
            f"({events_on} vs {events_off} events processed)"
        )
    if seq_on != seq_off:
        failures.append(
            f"enabling metrics changed event sequence allocation "
            f"({seq_on} vs {seq_off})"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"metrics smoke ok: {snapshots} snapshots byte-identical across fresh "
        f"processes; metrics on/off Stats and schedule identical "
        f"({events_on} events)"
    )
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

    p_smk = sub.add_parser(
        "smoke", help="determinism gate: byte-identical exports, no observer effect"
    )
    p_smk.set_defaults(fn=_cmd_smoke)

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
