"""Command-line entry point: regenerate the paper's evaluation tables.

Usage::

    python -m repro.experiments              # every artifact, quick params
    python -m repro.experiments E1 T1        # selected artifacts
    python -m repro.experiments --full       # full benchmark parameters
    python -m repro.experiments --list
"""

from __future__ import annotations

import argparse
import sys

import repro.metrics as metrics
import repro.trace as trace
from repro.experiments import (
    ablation_discovery_table,
    services_table,
    cache_ablation_table,
    call_flow_table,
    city_table,
    convergence_table,
    footprint_table,
    gateway_table,
    handover_table,
    interop_table,
    media_quality_table,
    module_inventory_table,
    overhead_vs_nodes_table,
    scalability_table,
    setup_delay_table,
    voice_quality_table,
)

#: artifact id -> (description, quick kwargs, full kwargs, function)
ARTIFACTS = {
    "F3": ("Figure 3 call flow", {}, {}, call_flow_table),
    "F6": ("deployment footprint (section 4)", {}, {}, footprint_table),
    "T1": ("provider interoperability (section 3.2)", {}, {}, interop_table),
    "E1": (
        "setup delay vs hop count",
        dict(hop_counts=(1, 2, 4), seeds=(1,)),
        dict(hop_counts=(1, 2, 4, 6, 8), seeds=(1, 2, 3)),
        setup_delay_table,
    ),
    "E2": (
        "control overhead vs node count",
        dict(node_counts=(9, 16), n_lookups=6),
        dict(node_counts=(9, 16, 25), n_lookups=8),
        overhead_vs_nodes_table,
    ),
    "E3": (
        "registration availability",
        dict(seeds=(1,)),
        dict(seeds=(1, 2, 3)),
        convergence_table,
    ),
    "E4": (
        "gateway attachment + Internet calls",
        dict(chain_lengths=(2, 3)),
        dict(chain_lengths=(2, 3, 5)),
        gateway_table,
    ),
    "E5": (
        "scalability (future work)",
        dict(node_counts=(10, 20), seeds=(1,), calls_per_run=4),
        dict(node_counts=(10, 20, 30), seeds=(1, 2), calls_per_run=5),
        scalability_table,
    ),
    "E6": (
        "voice quality vs hops and loss",
        dict(hop_counts=(1, 2, 4), loss_rates=(0.0, 0.15), talk_time=8.0),
        dict(hop_counts=(1, 2, 4, 6), loss_rates=(0.0, 0.05, 0.15)),
        voice_quality_table,
    ),
    "M1": (
        "media stacks (codec x redundancy x playout) under GE fading",
        dict(codecs=("PCMU",), ge_points=((1.2, 0.05),), talk_time=8.0),
        dict(
            codecs=("PCMU", "G729"),
            ge_points=((2.0, 0.04), (1.2, 0.05)),
        ),
        media_quality_table,
    ),
    "H1": (
        "mid-call coverage loss, baseline vs multihomed handover (section 5k)",
        dict(seeds=(1,), conditions=(("clean", None, None, False),)),
        dict(seeds=(1, 2, 3)),
        handover_table,
    ),
    "A1": (
        "discovery scheme ablation",
        dict(seeds=(1,)),
        dict(seeds=(1, 2, 3)),
        ablation_discovery_table,
    ),
    "A2": (
        "advert lifetime ablation",
        dict(lifetimes=(10.0, 120.0), observation=30.0),
        dict(lifetimes=(10.0, 30.0, 120.0)),
        cache_ablation_table,
    ),
    "S1": (
        "IM/presence/video services over SIPHoc (extension)",
        dict(hop_counts=(1, 2)),
        dict(hop_counts=(1, 2, 4)),
        services_table,
    ),
    "C1": (
        "city-scale MANET call load (5k nodes with --full)",
        dict(node_counts=(300,), n_calls=6, drain=15.0),
        dict(node_counts=(1000, 5000), n_calls=24),
        city_table,
    ),
    "INV": ("library inventory", {}, {}, module_inventory_table),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation tables.",
    )
    parser.add_argument("artifacts", nargs="*", help="artifact ids (default: all)")
    parser.add_argument("--full", action="store_true", help="full benchmark parameters")
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
        for key, (description, *_rest) in ARTIFACTS.items():
            print(f"{key:4} {description}")
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
    try:
        for key in selected:
            description, quick, full, fn = ARTIFACTS[key]
            kwargs = full if args.full else quick
            table = fn(**kwargs)
            print(table.format())
            print(f"[{key}: {description}]")
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
