#!/usr/bin/env python3
"""Surviving failures: relay crash + gateway power loss mid-call.

A 5-node chain with redundant radio coverage (70 m spacing, 150 m range:
every node hears its neighbours' neighbours) and two Internet gateways.
While alice talks to bob, a scripted fault plan

1. crashes the middle relay (its whole SIPHoc stack dies silently),
2. cuts power to the primary gateway — abrupt, so no SLP withdrawal is
   sent and remote caches keep the stale advert until it expires,
3. restarts the relay, which re-registers from scratch.

AODV routes around the dead relay, the Connection Provider cools the
dead gateway down and fails over to the survivor, and a second call
proves the system recovered. The same schedule replays byte-for-byte on
every run: faults are simulator-clock events, not wall-clock accidents.
This is the chaos run of artifact R1 (``python -m repro.experiments R1``).

Run:  python examples/gateway_failover.py
"""

from repro.faults.harness import run_chaos


def main() -> None:
    result = run_chaos()
    print("fault schedule (deterministic, JSONL):")
    for line in result.plan.describe().splitlines():
        print(f"  {line}")
    print()

    first, second = result.first_call, result.second_call
    print("alice calls bob; the relay dies and the gateway loses power mid-call ...")
    print(f"  first call: {first.final_state}"
          f" (established={first.established}) despite the faults")
    print("placing the recovery call ...")
    print(f"  second call: {second.final_state} — the MANET healed itself")

    print()
    print(result.report.render())


if __name__ == "__main__":
    main()
