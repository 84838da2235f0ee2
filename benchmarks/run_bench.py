#!/usr/bin/env python
"""Run the benchmark suite and emit pytest-benchmark JSON for trend tracking.

Writes ``BENCH_<YYYY-MM-DD>.json`` (pytest-benchmark's machine-readable
format) into the repository root so successive PRs leave a perf trajectory
to diff against. The JSON is compact by default — aggregate stats only;
pass ``--benchmark-save-data`` to keep every per-round timing (tail
percentiles at the cost of a multi-megabyte file)::

    python benchmarks/run_bench.py                 # micro-benchmarks (fast)
    python benchmarks/run_bench.py --all           # every benchmark file
    python benchmarks/run_bench.py --benchmark-save-data
    python benchmarks/run_bench.py -o my.json -- -k broadcast

Arguments after ``--`` are forwarded to pytest verbatim. pytest writes into
``<output>.partial``, which replaces the output only when the run succeeds:
a failed run leaves an existing BENCH file untouched.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def print_percentile_table(output: str) -> None:
    """Summarize the benchmark JSON: mean/p50/p95/p99/stddev per benchmark.

    Per-round timings in ``benchmarks[*].stats.data`` feed the same
    :class:`repro.netsim.stats.SampleSeries` the simulator uses; the table
    is printed *before* :func:`strip_round_data` runs, so the tail
    percentiles are exact even when the JSON on disk ends up compact. On a
    file already stripped (re-running against an old compact BENCH),
    p95/p99 — which need the raw rounds — print as ``-``.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.netsim.stats import SampleSeries

    with open(output, encoding="utf-8") as fh:
        report = json.load(fh)
    benchmarks = report.get("benchmarks", [])
    if not benchmarks:
        return
    name_width = max(len(b["name"]) for b in benchmarks)
    header = (
        f"{'benchmark':<{name_width}}  {'rounds':>6}  {'mean':>10}  "
        f"{'p50':>10}  {'p95':>10}  {'p99':>10}  {'stddev':>10}"
    )
    print()
    print(header)
    print("-" * len(header))
    for bench in benchmarks:
        stats = bench["stats"]
        series = SampleSeries(list(stats.get("data") or []))
        if series.values:
            rounds, mean = series.count, series.mean
            p50, p95, p99 = (series.percentile(p) for p in (50, 95, 99))
            stddev = series.stddev
        elif stats.get("rounds"):
            rounds, mean = stats["rounds"], stats["mean"]
            p50, stddev = stats["median"], stats["stddev"]
            p95 = p99 = None
        else:
            continue
        tail = "  ".join(
            f"{value:>10.6f}" if value is not None else f"{'-':>10}"
            for value in (mean, p50, p95, p99, stddev)
        )
        print(f"{bench['name']:<{name_width}}  {rounds:>6}  {tail}")


def strip_round_data(output: str) -> None:
    """Drop per-round timings from the JSON, keeping every aggregate.

    pytest-benchmark embeds the raw rounds in ``--benchmark-json`` output
    unconditionally — tens of thousands of floats per benchmark, ~10MB per
    snapshot. The trend the BENCH files exist for (cross-PR mean/median/ops
    diffs) only needs the aggregates, so the compact form is the default
    and ``--benchmark-save-data`` opts back into the full dump.
    """
    with open(output, encoding="utf-8") as fh:
        report = json.load(fh)
    for bench in report.get("benchmarks", []):
        bench["stats"].pop("data", None)
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def embed_metrics_summary(output: str) -> None:
    """Attach a compact sim-metrics summary to the benchmark JSON.

    Runs the standard instrumented smoke workload (4-node chain, one call,
    0.5 s scrape interval) and embeds ``summarize_sections`` output — scrape
    count plus the top-5 gauges by observed max — under a ``metrics`` key.
    Successive BENCH files then carry a coarse behavioral fingerprint next
    to the timing trend: a gauge ceiling that jumps between PRs (queue
    peaks, route-table size) flags a behavior change even when the
    wall-time aggregates look flat.
    """
    import io

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.metrics.render import summarize_sections
    from repro.metrics.scraper import load_jsonl
    from repro.scenarios import ManetConfig, ManetScenario

    scenario = ManetScenario(
        ManetConfig(
            n_nodes=4, seed=7, metrics=True, metrics_interval=0.5,
            tx_queue_capacity=8,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(3, "bob")
    scenario.converge()
    scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=3.0)
    scenario.stop()
    sections = load_jsonl(io.StringIO(scenario.metrics.export_text()))
    summary = summarize_sections(sections, top=5)

    with open(output, encoding="utf-8") as fh:
        report = json.load(fh)
    report["metrics"] = summary
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    top = ", ".join(
        f"{gauge['name']}={gauge['max']:g}" for gauge in summary["top_gauges"]
    )
    print(
        f"metrics summary embedded ({summary['scrape_count']} scrapes; "
        f"top gauges: {top})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--all",
        action="store_true",
        help="run every benchmark file (default: micro-benchmarks only)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="output JSON path (default: BENCH_<date>.json in the repo root)",
    )
    parser.add_argument(
        "--benchmark-save-data",
        action="store_true",
        dest="save_data",
        help="include per-round timings in the JSON (full percentiles in the "
        "summary table, but the file grows from ~100KB to several MB)",
    )
    args, passthrough = parser.parse_known_args(argv)
    if passthrough and passthrough[0] == "--":
        passthrough = passthrough[1:]

    output = os.path.abspath(
        args.output or os.path.join(REPO_ROOT, f"BENCH_{datetime.date.today().isoformat()}.json")
    )
    target = "benchmarks" if args.all else "benchmarks/test_bench_micro.py"
    partial = output + ".partial"
    command = [
        sys.executable,
        "-m",
        "pytest",
        target,
        "--benchmark-only",
        f"--benchmark-json={partial}",
        "-q",
        *passthrough,
    ]
    if args.save_data:
        command.insert(command.index("-q"), "--benchmark-save-data")
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    print("+", " ".join(command))
    try:
        result = subprocess.run(command, cwd=REPO_ROOT, env=env)
        if result.returncode != 0:
            print(f"pytest failed; {output} left untouched")
            return result.returncode
        print_percentile_table(partial)
        if not args.save_data:
            strip_round_data(partial)
        embed_metrics_summary(partial)
        os.replace(partial, output)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    size_kb = os.path.getsize(output) / 1024.0
    print(f"benchmark JSON written to {output} ({size_kb:.0f} KB)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
