#!/usr/bin/env python3
"""End-to-end benchmark of the SIPHoc simulator: four seeded call workloads.

Every run of a workload is a fresh child process that imports the
simulator from ``src/``, builds and warms the scenario (``setup_s``),
places the workload's calls and runs until each has ended (``run_s``).
Timed runs have tracing off and give the end-to-end metrics, their host
times read as process CPU time and scaled by a speed probe (``speed.py``);
traced runs wrap the simulator's layer seams (``seams.py``) and give the
per-layer metrics. Workload and metric names, units and bounds come from
``BENCHMARK.json`` at the repository root.

Every run is checked: each call record reaches a final state, the placed
call count matches the workload, both ends agree on the calls that were
answered, and the digest (sha256 of the run's Stats plus its call
records) is the same for every run of one seed, traced or not. A traced
run must also account for its whole run time in span self times.

Single-workload form, one workload and one mode; the last line of standard output
is the result object::

    python3 e2ebench/e2e.py --workload city --seed 1 --seconds 25 --trace 0

Report form, every workload (``--repeat`` timed runs and one traced run
each), printing every metric with its unit and writing a result file::

    python3 e2ebench/e2e.py --seed 1 -o e2ebench/results/seed1.json
    python3 e2ebench/e2e.py --smoke

Exit status: 0 when every check passes, 1 when a check fails (the result
is still printed), 2 when the simulator sources are missing (nothing is
printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: A single child run is killed after this long (the whole invocation must
#: finish within 180 s).
CHILD_TIMEOUT_S = 150.0
#: Traced self times must account for the traced run time within this share.
SELF_TIME_TOLERANCE = 0.02
#: Percentiles tried for the post-dial-delay tail, highest first; the first
#: with at least TAIL_BEYOND samples beyond it is reported.
TAIL_PERCENTILES = (99, 95, 90, 80, 50)
TAIL_BEYOND = 10
#: Speed-probe samples taken at each phase boundary of a run (see speed.py).
PHASE_PROBES = 10


# -- child: one run in a fresh process --------------------------------------------------
def child_main(workload: str, seed: int, smoke: bool, traced: bool) -> None:
    """One run, printed as one JSON line.

    A timed run reads process CPU time, which co-scheduled processes do not
    inflate, and scales each phase by the speed probe (``speed.py``). A
    traced run reads wall time, the clock its spans use, and is unscaled.
    """
    clock = time.perf_counter if traced else time.process_time
    started = clock()
    sys.path.insert(0, SRC)
    if traced:
        import seams

        tracer, probe = seams.SpanTracer().install(), None
    else:
        import speed

        tracer, probe = None, speed.SpeedProbe().install()
        probe.sample(PHASE_PROBES)
    import workloads

    prepared = workloads.WORKLOADS[workload](seed, smoke)
    if probe is not None:
        probe.sample(PHASE_PROBES)
    setup = phase_times(probe, clock() - started)
    scenario = prepared.scenario
    sim = scenario.sim
    drive_at = sim.now
    events_before = sim.events_processed
    counters_before = dict(scenario.stats.counters)
    run_started, wall_started = clock(), time.perf_counter()
    if tracer is not None:
        tracer.run(prepared.drive)
    else:
        prepared.drive()
    run_wall_s = time.perf_counter() - wall_started
    if probe is not None:
        probe.sample(PHASE_PROBES)
    run = phase_times(probe, clock() - run_started)
    rows = workloads.call_rows(scenario)
    result = {
        "setup_s": setup["scaled"],
        "setup_raw_s": setup["raw"],
        "run_s": run["scaled"],
        "run_raw_s": run["raw"],
        "run_wall_s": run_wall_s,
        "probe_us": run["probe_us"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": workloads.digest(scenario, rows),
        "events": sim.events_processed - events_before,
        "drive_at": drive_at,
        "placed_expected": prepared.placed,
        "talk_s": prepared.talk_s,
        "n_nodes": len(scenario.nodes),
        "calls": rows,
        "counters": {
            name: value - counters_before.get(name, 0)
            for name, value in scenario.stats.counters.items()
        },
    }
    if tracer is not None:
        result["spans"] = tracer.totals()
        result["self_sum_s"] = sum(self_s for _, self_s in tracer.paths.values())
        result["top_row_s"] = max(self_s for _, self_s in tracer.paths.values())
        result["trace_events"] = tracer.events
        result["pending_max"] = tracer.pending_max
        result["span_cost_us"] = seams.span_cost_us()
        result["folded"] = tracer.folded()
    print(json.dumps(result))


def phase_times(probe, elapsed: float) -> dict:
    """Raw and probe-scaled time of a phase that took ``elapsed`` seconds."""
    if probe is None:
        return {"scaled": None, "raw": elapsed, "probe_us": None}
    scaled, raw, mean_probe = probe.finish_phase(elapsed)
    return {"scaled": scaled, "raw": raw, "probe_us": mean_probe * 1e6}


def run_child(workload: str, seed: int, smoke: bool, traced: bool) -> dict:
    """One run in a fresh interpreter; ``{"error": ...}`` if it failed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", workload]
    cmd += ["--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"run exceeded {CHILD_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit status {proc.returncode}"]
        return {"error": tail[0]}
    return json.loads(lines[-1])


def repeat(
    workload: str, seed: int, smoke: bool, traced: bool, at_least: int, seconds: float
) -> list[dict]:
    """At least ``at_least`` runs, then more while they fit in ``seconds``."""
    runs: list[dict] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(runs) >= at_least and elapsed + elapsed / len(runs) > seconds:
            return runs
        runs.append(run_child(workload, seed, smoke, traced))
        if "error" in runs[-1]:
            return runs


# -- checks and metrics --------------------------------------------------------------------
def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def check_calls(run: dict) -> list[str]:
    """Output checks on one run's call records."""
    problems = []
    rows = run["calls"]
    drive_at = run["drive_at"]
    unfinished = [row for row in rows if row["final_state"] not in ("terminated", "failed")]
    if unfinished:
        problems.append(f"{len(unfinished)} call records never reached a final state")
    placed = [row for row in rows if row["direction"] == "out" and row["placed"] >= drive_at]
    if len(placed) != run["placed_expected"]:
        problems.append(f"placed {len(placed)} calls, expected {run['placed_expected']}")
    answered = [row for row in placed if row["established"] is not None]
    for row in answered:
        ringing = row["established"] if row["ringing"] is None else row["ringing"]
        if not row["placed"] <= ringing <= row["established"] <= row["ended"]:
            problems.append(f"call to {row['peer']} at {row['placed']}: times out of order")
            break
        if row["ended"] - row["established"] < run["talk_s"] - 1e-9:
            problems.append(f"call to {row['peer']} at {row['placed']}: ended early")
            break
        if row["mos"] is not None and not 1.0 <= row["mos"] <= 4.5:
            problems.append(f"call to {row['peer']} at {row['placed']}: MOS {row['mos']}")
            break
    callee_side = [
        row
        for row in rows
        if row["direction"] == "in" and row["placed"] >= drive_at and row["established"]
    ]
    if len(callee_side) != len(answered):
        problems.append(
            f"{len(answered)} calls answered by callers, {len(callee_side)} by callees"
        )
    return problems


def call_metrics(run: dict) -> dict[str, float]:
    """Deterministic per-call metrics of one run (simulated time)."""
    placed = [
        row for row in run["calls"] if row["direction"] == "out" and row["placed"] >= run["drive_at"]
    ]
    answered = [row for row in placed if row["established"] is not None]
    pdd = sorted(
        (row["ringing"] - row["placed"]) * 1000.0 for row in placed if row["ringing"] is not None
    )
    mos = sorted(row["mos"] for row in answered if row["mos"] is not None)
    tail_pct = next(
        (p for p in TAIL_PERCENTILES if len(pdd) - math.ceil(p / 100 * len(pdd)) >= TAIL_BEYOND),
        TAIL_PERCENTILES[-1],
    )
    return {
        "call_success": len(answered) / len(placed) if placed else 0.0,
        "pdd_p50_ms": percentile(pdd, 50) if pdd else 0.0,
        "pdd_tail_ms": percentile(pdd, tail_pct) if pdd else 0.0,
        "pdd_tail_pct": tail_pct,
        "pdd_samples": len(pdd),
        "mos_p50": percentile(mos, 50) if mos else 0.0,
        "answered": len(answered),
        "placed": len(placed),
    }


def layer_metrics(run: dict, untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (raw host seconds, no probe scaling)."""
    spans = run["spans"]
    counters = run["counters"]
    out: dict[str, float] = {}
    for name, (calls, self_s) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    calls = {name: record[0] for name, record in spans.items()}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    originated = counters.get("aodv.rreq_originated", 0) + counters.get("manetslp.queries_sent", 0)
    out.update(
        {
            "kernel.events": run["trace_events"],
            "kernel.events_per_s": ratio(run["trace_events"], run["run_raw_s"]),
            "kernel.pending_max": run["pending_max"],
            "medium.fanout": ratio(
                calls["node.rx"], calls["medium.broadcast"] + calls["medium.unicast"]
            ),
            "medium.unicast_ok": 1.0
            - ratio(counters.get("medium.unicast_failures", 0), calls["medium.unicast"]),
            "hooks.piggyback_ratio": ratio(
                counters.get("manetslp.adverts_piggybacked", 0),
                calls["hooks.siphoc-slp-aodv-out"] + calls["hooks.siphoc-slp-olsr-out"],
            ),
            "aodv.rreq_forward_ratio": ratio(
                counters.get("aodv.rreq_forwarded", 0), originated * (run["n_nodes"] - 1)
            ),
            "slp.cache_hit_ratio": ratio(
                counters.get("manetslp.cache_hits", 0),
                counters.get("manetslp.cache_hits", 0) + counters.get("manetslp.cache_misses", 0),
            ),
            "trace.top_row_share": ratio(run["top_row_s"], run["run_raw_s"]),
            "trace.span_cost_us": run["span_cost_us"],
            "trace_overhead": ratio(run["run_wall_s"], untraced_run_s),
        }
    )
    return out


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and count of a list of measurements."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def summarize(
    workload: str, seed: int, timed: list[dict], traced: list[dict], spec: dict
) -> dict:
    """Checks plus end-to-end and per-layer metrics of one workload."""
    problems: list[str] = []
    good_timed = [run for run in timed if "error" not in run]
    good_traced = [run for run in traced if "error" not in run]
    for run in timed + traced:
        if "error" in run:
            problems.append(f"run failed: {run['error']}")
    runs = good_timed + good_traced
    # A run that crashed or failed a check counts all of its calls as failed.
    placed_each = runs[0]["placed_expected"] if runs else 1
    attempted = placed_each * len(timed + traced)
    failed = placed_each * (len(timed + traced) - len(runs))
    digests = sorted({run["digest"] for run in runs})
    if len(digests) > 1:
        problems.append(f"runs of seed {seed} disagree: {len(digests)} distinct digests")
    per_call = None
    for run in runs:
        run_problems = check_calls(run)
        problems.extend(run_problems)
        per_call = call_metrics(run)
        if run_problems or len(digests) > 1:
            failed += placed_each
        else:
            failed += per_call["placed"] - per_call["answered"]
    for run in good_traced:
        if abs(run["self_sum_s"] - run["run_raw_s"]) > SELF_TIME_TOLERANCE * run["run_raw_s"]:
            problems.append(
                f"span self times sum to {run['self_sum_s']:.4f} s, traced run took "
                f"{run['run_raw_s']:.4f} s"
            )
        if run["trace_events"] != run["events"]:
            problems.append(
                f"tracer saw {run['trace_events']} events, kernel ran {run['events']}"
            )

    end_to_end: dict[str, dict] = {}
    if good_timed and per_call is not None:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in ("run_s", "setup_s", "peak_rss_mb"):
                values = [run[name] for run in good_timed]
            else:
                values = [per_call[name]]
            end_to_end[name] = {**spread(values), "unit": metric["unit"]}
    raw_times = {
        name: round(statistics.median(run[name] for run in good_timed), 4) if good_timed else None
        for name in ("run_raw_s", "setup_raw_s", "probe_us")
    }
    per_layer: dict[str, dict] = {}
    if good_traced and good_timed:
        untraced = statistics.median(run["run_wall_s"] for run in good_timed)
        layers = [layer_metrics(run, untraced) for run in good_traced]
        for metric in spec["per_layer"]:
            name = metric["name"]
            per_layer[name] = {
                **spread([layer[name] for layer in layers]),
                "unit": metric["unit"],
            }
    return {
        "workload": workload,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "timed_runs": len(timed),
        "traced_runs": len(traced),
        "digest": digests[0] if len(digests) == 1 else None,
        "pdd_tail_pct": per_call["pdd_tail_pct"] if per_call else None,
        "pdd_samples": per_call["pdd_samples"] if per_call else 0,
        "end_to_end": end_to_end,
        "raw_times": raw_times,
        "per_layer": per_layer,
    }


# -- output ----------------------------------------------------------------------------------
def print_report(results: list[dict]) -> None:
    for result in results:
        print(
            f"== {result['workload']} (seed {result['seed']}): {result['timed_runs']} timed + "
            f"{result['traced_runs']} traced runs, {result['attempted']} calls attempted, "
            f"{result['failed']} failed, digest {str(result['digest'])[:16]}"
        )
        tail = f"p{result['pdd_tail_pct']} of {result['pdd_samples']} calls"
        for name, metric in result["end_to_end"].items():
            note = f"  ({tail})" if name == "pdd_tail_ms" else ""
            print(
                f"  {name:<24} {metric['value']:>12.4f} {metric['unit']:<6} "
                f"[{metric['q1']:.4f}, {metric['q3']:.4f}] n={metric['n']}{note}"
            )
        for problem in result["problems"]:
            print(f"  CHECK FAILED: {problem}")
    names = list(results[0]["per_layer"]) if results and results[0]["per_layer"] else []
    if names:
        print("\nper-layer (traced run; median over traced runs)")
        print(f"  {'metric':<34} {'unit':<6}" + "".join(f" {r['workload']:>12}" for r in results))
        for name in names:
            unit = results[0]["per_layer"][name]["unit"]
            cells = "".join(
                f" {r['per_layer'][name]['value']:>12.6g}" if name in r["per_layer"] else " " * 13
                for r in results
            )
            print(f"  {name:<34} {unit:<6}{cells}")


def raw_times_line(result: dict) -> str:
    raw = result["raw_times"]
    return (
        f"{result['workload']}: {result['timed_runs']} timed and {result['traced_runs']} traced "
        f"runs; unscaled run {raw['run_raw_s']} s, setup {raw['setup_raw_s']} s, "
        f"probe {raw['probe_us']} us (medians over timed runs)"
    )


def result_line(result: dict, traced: bool) -> str:
    metrics = result["per_layer"] if traced else result["end_to_end"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in metrics.items()
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    workload_names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workload_names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding timed runs until this much time has passed")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed runs per workload in the report form (at least)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single-workload form: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("-o", "--output", help="report form: write the result file here")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, one timed and one traced run per workload")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        child_main(args.workload[0], args.seed, args.smoke, args.traced)
        return 0
    if not os.path.isfile(os.path.join(SRC, "repro", "scenarios.py")):
        print(f"simulator sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        workload = args.workload[0]
        if args.trace:
            started = time.perf_counter()
            timed = repeat(workload, args.seed, args.smoke, False, 1, 0.0)
            left = args.seconds - (time.perf_counter() - started)
            traced = repeat(workload, args.seed, args.smoke, True, 1, left)
        else:
            timed = repeat(workload, args.seed, args.smoke, False, 3, args.seconds)
            traced = []
        result = summarize(workload, args.seed, timed, traced, spec)
        for problem in result["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(raw_times_line(result), file=sys.stderr)
        print(result_line(result, bool(args.trace)))
        return 0 if result["correct"] else 1

    repeat_runs = 1 if args.smoke else args.repeat
    results = []
    for workload in args.workload or workload_names:
        timed = repeat(workload, args.seed, args.smoke, False, repeat_runs, args.seconds)
        traced = repeat(workload, args.seed, args.smoke, True, 1, 0.0)
        result = summarize(workload, args.seed, timed, traced, spec)
        folded = next((run["folded"] for run in traced if "folded" in run), "")
        if args.output and folded:
            with open(f"{args.output}.{workload}.folded", "w", encoding="utf-8") as handle:
                handle.write(folded)
        results.append(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"results": results}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print_report(results)
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
