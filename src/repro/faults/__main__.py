"""Chaos CLI: ``python -m repro.faults <subcommand>``.

Subcommands:

* ``plan``  — print the canonical fault plan (JSONL, one event per line)
* ``run``   — run the chaos workload, print the recovery report

The seed-7 chaos run is also the ``chaos_run`` gate in
:mod:`repro.experiments.gates`.
"""

from __future__ import annotations

import argparse
import sys

from repro.faults.harness import MIN_CHAOS_HOPS, default_chaos_plan, run_chaos


def _chaos_hops(text: str) -> int:
    hops = int(text)
    if hops < MIN_CHAOS_HOPS:
        raise argparse.ArgumentTypeError(
            f"the chaos chain needs at least {MIN_CHAOS_HOPS} hops, got {text}"
        )
    return hops


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = default_chaos_plan(args.hops + 1, t0=12.0 if args.routing == "olsr" else 3.0)
    print(plan.describe())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_chaos(
        hops=args.hops, routing=args.routing, seed=args.seed, tracing=True
    )
    print("fault plan:")
    for line in result.plan.describe().splitlines():
        print(f"  {line}")
    print()
    print(result.report.render())
    print()
    print(f"post-fault call re-established: {'yes' if result.recovered else 'NO'}")
    if args.out and result.scenario.trace is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.scenario.trace.export_jsonl())
    return 0 if result.recovered else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic fault injection: chaos runs and recovery metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="print the canonical fault plan as JSONL")
    p_plan.add_argument("--hops", type=_chaos_hops, default=4, help="chain length (default 4)")
    p_plan.add_argument("--routing", choices=("aodv", "olsr"), default="aodv")
    p_plan.set_defaults(fn=_cmd_plan)

    p_run = sub.add_parser("run", help="run the chaos workload, print recovery report")
    p_run.add_argument("--hops", type=_chaos_hops, default=4, help="chain length (default 4)")
    p_run.add_argument("--routing", choices=("aodv", "olsr"), default="aodv")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--out", help="also write the trace JSONL to this path")
    p_run.set_defaults(fn=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(141)
