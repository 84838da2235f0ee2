#!/usr/bin/env python3
"""Compare two result files of ``e2e.py``, workload by workload.

    python3 e2ebench/bench_diff.py BASE.json NEW.json

For every workload and end-to-end metric it prints both medians with
their quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse`` or ``better`` when the medians differ by more than the bound;
* ``unresolved`` when either side's quartile spread exceeds the bound,
  unless every run of NEW reads better than every run of BASE;
* ``same`` otherwise.

It also compares each workload's share of failed calls (a higher share is
``worse``) and its output digest. Exit status 1 when any verdict is
``worse``, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def relative_spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"] if metric["value"] else 0.0


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """Verdict for one metric; ``base``/``new`` carry value, q1, q3, values."""
    sign = 1.0 if better == "lower" else -1.0
    if max(relative_spread(base), relative_spread(new)) > bound:
        if better == "lower":
            clear_win = max(new["values"]) < min(base["values"])
        else:
            clear_win = min(new["values"]) > max(base["values"])
        return "better" if clear_win else "unresolved"
    if not base["value"]:
        return "same" if new["value"] == base["value"] else "unresolved"
    worse_by = sign * (new["value"] - base["value"]) / abs(base["value"])
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def failure_share(result: dict) -> float:
    return result["failed"] / result["attempted"] if result["attempted"] else 1.0


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything got worse."""
    lines: list[str] = []
    any_worse = False
    base_results = {result["workload"]: result for result in base["results"]}
    new_results = {result["workload"]: result for result in new["results"]}
    for workload in sorted(set(base_results) | set(new_results)):
        if workload not in base_results or workload not in new_results:
            side = "NEW" if workload not in new_results else "BASE"
            lines.append(f"== {workload}: missing from {side}")
            continue
        old, cur = base_results[workload], new_results[workload]
        lines.append(f"== {workload} (seed {old['seed']} vs {cur['seed']})")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in old["end_to_end"] or name not in cur["end_to_end"]:
                lines.append(f"  {name:<14} missing")
                continue
            a, b = old["end_to_end"][name], cur["end_to_end"][name]
            result = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            lines.append(
                f"  {name:<14} {a['value']:>11.4f} [{a['q1']:.4f}, {a['q3']:.4f}] n={a['n']:<2}"
                f" -> {b['value']:>11.4f} [{b['q1']:.4f}, {b['q3']:.4f}] n={b['n']:<2}"
                f" {metric['unit']:<6} bound {metric['bound']:.0%}: {result}"
            )
        old_share, cur_share = failure_share(old), failure_share(cur)
        failures = "worse" if cur_share > old_share else "same"
        any_worse |= failures == "worse"
        lines.append(
            f"  failed calls   {old['failed']}/{old['attempted']} -> "
            f"{cur['failed']}/{cur['attempted']}: {failures}"
        )
        same_digest = old["digest"] is not None and old["digest"] == cur["digest"]
        lines.append(f"  digest         {'same' if same_digest else 'changed'}")
    return lines, any_worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    lines, any_worse = compare(base, new, spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
