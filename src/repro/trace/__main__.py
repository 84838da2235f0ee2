"""Trace analysis CLI: ``python -m repro.trace <subcommand> trace.jsonl``.

Subcommands:

* ``summarize`` — event counts by category/kind/node, drop causes, span
* ``ladder``    — SIP call-flow ladder diagram (``--call-id`` per dialog)
* ``filter``    — select events by kind/category/node/time, emit JSONL or
  a rendered timeline
* ``packets``   — packet-lifecycle reconstruction (tx → hops → rx/drop)

The ``traced_chain_call`` gate (``python -m repro.experiments.gates
traced_chain_call``) checks that a traced call's export passes the event
schema and that its ladder renders.
"""

from __future__ import annotations

import argparse
import sys

from repro.trace.analysis import (
    filter_events,
    reconstruct_packets,
    render_packet_lifecycles,
    render_summary,
    render_timeline,
    summarize,
    timeline,
)
from repro.trace.collector import read_jsonl
from repro.trace.events import TraceError
from repro.trace.ladder import call_ids, sip_ladder


def _load(path: str) -> list:
    try:
        return read_jsonl(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot read trace file: {exc}")
    except TraceError as exc:
        raise SystemExit(f"error: malformed trace file {path!r}: {exc}")


def _cmd_summarize(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    print(render_summary(summarize(events)))
    return 0


def _cmd_ladder(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    if args.list_calls:
        for cid in call_ids(events):
            print(cid)
        return 0
    if args.call_id is not None and args.call_id not in call_ids(events):
        print(f"(no SIP messages with Call-ID {args.call_id!r}; --list-calls lists the trace's)")
        return 0
    print(sip_ladder(events, call_id=args.call_id))
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    events = filter_events(
        _load(args.trace),
        kinds=args.kind,
        categories=args.category,
        nodes=args.node,
        t_min=args.since,
        t_max=args.until,
    )
    if args.render:
        print(render_timeline(timeline(events)))
    else:
        for event in events:
            print(event.to_json_line())
    return 0


def _cmd_packets(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    lifecycles = reconstruct_packets(events)
    if args.dropped:
        lifecycles = [life for life in lifecycles if life.outcome == "drop"]
        if not lifecycles:
            print("(no dropped packets)")
            return 0
    print(render_packet_lifecycles(lifecycles))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Analyze repro.trace JSONL event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="event counts and drop causes")
    p_sum.add_argument("trace", help="trace JSONL file")
    p_sum.set_defaults(fn=_cmd_summarize)

    p_lad = sub.add_parser("ladder", help="SIP call-flow ladder diagram")
    p_lad.add_argument("trace", help="trace JSONL file")
    p_lad.add_argument("--call-id", help="restrict to one dialog")
    p_lad.add_argument(
        "--list-calls", action="store_true", help="list Call-IDs in the trace"
    )
    p_lad.set_defaults(fn=_cmd_ladder)

    p_fil = sub.add_parser("filter", help="select events, emit JSONL or timeline")
    p_fil.add_argument("trace", help="trace JSONL file")
    p_fil.add_argument("--kind", action="append", default=[], help="event kind (repeatable)")
    p_fil.add_argument(
        "--category", action="append", default=[], help="event category (repeatable)"
    )
    p_fil.add_argument("--node", action="append", default=[], help="node IP (repeatable)")
    p_fil.add_argument("--since", type=float, help="minimum simulation time")
    p_fil.add_argument("--until", type=float, help="maximum simulation time")
    p_fil.add_argument(
        "--render", action="store_true", help="render a timeline instead of JSONL"
    )
    p_fil.set_defaults(fn=_cmd_filter)

    p_pkt = sub.add_parser("packets", help="packet lifecycle reconstruction")
    p_pkt.add_argument("trace", help="trace JSONL file")
    p_pkt.add_argument("--dropped", action="store_true", help="only dropped packets")
    p_pkt.set_defaults(fn=_cmd_packets)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Downstream pipe (e.g. `... | head`) closed early: exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(141)
