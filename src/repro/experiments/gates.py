"""Gate workloads: seeded runs whose canonical text is pinned by a digest.

The reproduction's contract is that a seeded run is byte-identical across
fresh interpreters. :data:`GATES` names the workloads that hold the code to
it. Each gate is a zero-argument function that runs one seeded workload and
returns canonical text; a gate may also carry a check that lists the
invariants the text fails to show. :func:`run_fresh` runs one gate in a new
interpreter (protocol identifiers come from process-global counters, so a
fresh process needs no ``registry.reset_all()``), and
``tests/netsim/test_golden.py`` compares the sha256 of that text with the
committed ``tests/netsim/golden.json`` and applies the gate's check.

Run one gate by hand::

    PYTHONPATH=src python -m repro.experiments.gates chaos_run | sha256sum
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.errors import MetricsError
from repro.experiments.handover import HandoverTrial, run_handover_trial
from repro.experiments.media import run_media_point
from repro.faults.channel import GilbertElliottChannel, TimedGilbertElliottChannel
from repro.faults.harness import default_chaos_plan, run_chaos
from repro.faults.plan import FaultPlan
from repro.globalstate import registry
from repro.metrics.registry import render_prometheus
from repro.metrics.scraper import load_jsonl
from repro.overload.harness import MODE_CONTROLLED, MODE_UNCONTROLLED, run_sweep, smoke_config
from repro.scenarios import ManetConfig, ManetScenario, build_chain_call_scenario
from repro.trace.events import TraceError, parse_jsonl_line

#: Bob's address in every gate's call.
BOB = "sip:bob@voicehoc.ch"

#: "Users satisfied" threshold on the E-model MOS scale (ITU-T G.107).
MOS_SATISFIED = 3.6


@dataclass(frozen=True)
class Gate:
    """One named workload: ``run`` returns canonical text, ``check`` its failures."""

    run: Callable[[], str]
    check: Callable[[str], list[str]] = lambda text: []


def _trace_failures(jsonl: str) -> list[str]:
    """An empty export or the first line that fails the event schema."""
    if not jsonl.strip():
        return ["trace export is empty"]
    for number, line in enumerate(jsonl.splitlines(), start=1):
        try:
            parse_jsonl_line(line)
        except TraceError as exc:
            return [f"trace line {number} failed schema validation: {exc}"]
    return []


# ---------------------------------------------------------------------------
# Scenario fingerprints: Stats, event counts and the full trace export
# ---------------------------------------------------------------------------


def _fingerprint(scenario: ManetScenario) -> str:
    assert scenario.trace is not None
    return json.dumps(
        {
            "stats": scenario.stats.to_dict(),
            "events_processed": scenario.sim.events_processed,
            "pending_events": scenario.sim.pending_events,
            "trace": scenario.trace.export_jsonl(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def fault_mobile_aodv() -> str:
    """25-node mobile AODV: bursty channel, crash/partition/heal/restart, bounded TX queues."""
    plan = (
        FaultPlan()
        .crash(at=14.0, node=7)
        .partition(at=16.0, group_a=(0, 1, 2), group_b=(20, 21, 22), name="split")
        .heal(at=20.0, name="split")
        .restart(at=22.0, node=7)
        .with_channel(GilbertElliottChannel(p_gb=0.05, p_bg=0.3, loss_bad=0.8))
    )
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=25,
            topology="random",
            routing="aodv",
            seed=2026,
            tx_range=250.0,
            area=(700.0, 700.0),
            mobility=True,
            tracing=True,
            faults=plan,
            tx_queue_capacity=16,
            tx_queue_policy="tail-drop",
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(24, "bob")
    scenario.converge()
    scenario.phones["alice"].place_call(BOB, duration=5.0)
    scenario.sim.run(scenario.sim.now + 15.0)
    scenario.stop()
    return _fingerprint(scenario)


def lossy_mobile_aodv() -> str:
    """16-node mobile AODV with 5 % uniform loss and one call."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=16,
            topology="random",
            routing="aodv",
            seed=7,
            tx_range=250.0,
            area=(600.0, 600.0),
            loss_rate=0.05,
            mobility=True,
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(15, "bob")
    scenario.converge()
    scenario.phones["alice"].place_call(BOB, duration=5.0)
    scenario.sim.run(scenario.sim.now + 12.0)
    scenario.stop()
    return _fingerprint(scenario)


def olsr_grid_call() -> str:
    """3x3 OLSR grid: periodic HELLO/TC carrying SLP piggybacks, one corner-to-corner call."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=9,
            topology="grid",
            routing="olsr",
            seed=5,
            spacing=100.0,
            tx_range=150.0,
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(8, "bob")
    scenario.converge()
    scenario.call_and_wait("alice", BOB, duration=4.0)
    scenario.stop()
    return _fingerprint(scenario)


def fading_media_call() -> str:
    """2-hop AODV chain, adaptive playout + RFC 2198 depth 2 over a timed Gilbert–Elliott fade."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=3,
            topology="chain",
            routing="aodv",
            seed=3,
            mac_retries=1,
            aodv_net_diameter=2,
            faults=FaultPlan(channel=TimedGilbertElliottChannel(mean_good=1.2, mean_bad=0.05)),
            media_jitter_policy="adaptive",
            media_redundancy=2,
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(2, "bob")
    scenario.converge()
    scenario.call_and_wait("alice", BOB, duration=4.0)
    scenario.stop()
    return _fingerprint(scenario)


# ---------------------------------------------------------------------------
# Tracing and faults
# ---------------------------------------------------------------------------


def traced_chain_call() -> str:
    """2-hop AODV chain, one traced call: the full JSONL trace export."""
    scenario = build_chain_call_scenario(hops=2, routing="aodv", seed=11, tracing=True)
    scenario.converge()
    scenario.call_and_wait("alice", BOB, duration=2.0)
    scenario.stop()
    assert scenario.trace is not None
    return scenario.trace.export_jsonl()


#: Separates the fault schedule from the trace in the chaos gate's text.
_CHAOS_SEPARATOR = "\n=====\n"


def chaos_run() -> str:
    """The seed-7 chaos workload: its fault schedule, then its trace export."""
    result = run_chaos(hops=4, routing="aodv", seed=7)
    assert result.scenario.trace is not None
    return result.plan.describe() + _CHAOS_SEPARATOR + result.scenario.trace.export_jsonl()


def check_chaos_run(text: str) -> list[str]:
    """The run used the default plan and its valid trace shows every planned fault."""
    schedule, _, jsonl = text.partition(_CHAOS_SEPARATOR)
    failures = _trace_failures(jsonl)
    if failures:
        return failures
    if schedule != default_chaos_plan(5, t0=3.0).describe():
        failures.append("the run used a different fault schedule than the plan")
    planned = len(schedule.splitlines())
    injected = sum(
        parse_jsonl_line(line).category == "fault" for line in jsonl.splitlines()
    )
    if injected != planned:
        failures.append(
            f"{planned} fault events planned but {injected} showed up in the trace"
        )
    return failures


# ---------------------------------------------------------------------------
# Overload and metrics
# ---------------------------------------------------------------------------


def overload_sweep() -> str:
    """The reduced offered-load sweep (1 and 2 cps), rendered report."""
    return run_sweep(smoke_config()).render()


#: Columns of one load row in ``SweepReport.render()``.
_SWEEP_COLUMNS = (
    "load", "mode", "att", "ok", "rate", "est", "p50", "p95", "mos", "503", "other",
    "qdrops", "admrej",
)


def check_overload_sweep(text: str) -> list[str]:
    """At the top load admission sheds with 503s; without it the queues collapse."""
    rows = {}
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == len(_SWEEP_COLUMNS) and fields[1] in (MODE_CONTROLLED, MODE_UNCONTROLLED):
            rows[float(fields[0]), fields[1]] = dict(zip(_SWEEP_COLUMNS, fields))
    top = max((load for load, _ in rows), default=None)
    controlled = rows.get((top, MODE_CONTROLLED))
    uncontrolled = rows.get((top, MODE_UNCONTROLLED))
    if controlled is None or uncontrolled is None:
        return ["the sweep report is missing its top-load points"]
    failures = []
    if int(controlled["503"]) == 0:
        failures.append("no 503 admission rejections at the overload point")
    if int(controlled["admrej"]) == 0:
        failures.append("sip.admission_rejected counter never moved")
    if int(uncontrolled["qdrops"]) == 0:
        failures.append("bounded TX queues shed nothing without admission")
    if float(controlled["rate"]) <= float(uncontrolled["rate"]):
        failures.append(
            f"admission control did not help at {top:.1f} cps (controlled "
            f"{controlled['rate']} <= uncontrolled {uncontrolled['rate']})"
        )
    if int(uncontrolled["503"]) or int(uncontrolled["admrej"]):
        failures.append("uncontrolled run unexpectedly produced 503 rejections")
    if "knee: none" in text:
        failures.append("no knee: controlled runs never cleared the threshold")
    return failures


def metrics_export() -> str:
    """A 4-node chain with bounded TX queues and one call, scraped every 0.5 s."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=4, seed=7, metrics=True, metrics_interval=0.5, tx_queue_capacity=8
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(3, "bob")
    scenario.converge()
    scenario.call_and_wait("alice", BOB, duration=3.0)
    scenario.stop()
    assert scenario.metrics is not None
    return scenario.metrics.export_text()


def check_metrics_export(text: str) -> list[str]:
    """The export parses, carries the standard gauges and renders for Prometheus."""
    try:
        sections = load_jsonl(io.StringIO(text))
    except MetricsError as exc:
        return [f"export failed schema validation: {exc}"]
    if not any(section.snapshots for section in sections):
        return ["export contains no snapshots"]
    last = sections[0].snapshots[-1]
    failures = [
        f"gauge {name} missing from export"
        for name in ("txqueue.depth.sum", "routing.routes.sum")
        if name not in last.gauges
    ]
    body = {"counters": last.counters, "gauges": last.gauges, "histograms": last.histograms}
    if not render_prometheus(body).strip():
        failures.append("Prometheus exposition rendered empty")
    return failures


# ---------------------------------------------------------------------------
# Media plane
# ---------------------------------------------------------------------------


def media_contrast() -> str:
    """The M1 contrast point: fixed/no-RED against adaptive + RED 2 under fading."""
    lines = []
    for label, policy, red in (("baseline", "fixed", 0), ("full", "adaptive", 2)):
        quality, _ = run_media_point(
            codec="PCMU", policy=policy, redundancy=red,
            mean_good=1.2, mean_bad=0.05, talk_time=8.0,
        )
        if quality is None:
            lines.append(f"{label} not-established\n")
            continue
        lines.append(
            f"{label} mos={quality.mos:.4f} eff={quality.effective_loss_ratio:.4f} "
            f"m2e={quality.mouth_to_ear_delay:.4f} recovered={quality.packets_recovered}\n"
        )
    return "".join(lines)


def check_media_contrast(text: str) -> list[str]:
    """Fixed/no-RED scores below MOS 3.6; adaptive + RED 2 recovers it."""
    mos = {
        label: float(rest.split()[0])
        for label, _, rest in (line.partition(" mos=") for line in text.splitlines())
        if rest
    }
    if set(mos) != {"baseline", "full"}:
        return [f"contrast calls did not establish:\n{text}"]
    failures = []
    if mos["baseline"] >= MOS_SATISFIED:
        failures.append(f"fixed/no-RED baseline unexpectedly satisfied: MOS {mos['baseline']:.2f}")
    if mos["full"] < MOS_SATISFIED:
        failures.append(f"RFC 2198 + adaptive playout did not recover: MOS {mos['full']:.2f}")
    return failures


def _e5_schedule(explicit_off: bool) -> str:
    """An E5-style call schedule: call outcomes, event count, every counter."""
    kwargs: dict = dict(
        n_nodes=10, topology="grid", routing="aodv", seed=1, spacing=90.0, tx_range=140.0
    )
    if explicit_off:
        kwargs.update(media_jitter_policy="fixed", media_redundancy=0, media_vad=False)
    scenario = ManetScenario(ManetConfig(**kwargs))
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(9, "bob")
    scenario.converge()
    for _ in range(3):
        scenario.call_and_wait("alice", BOB, duration=4.0)
    lines = []
    for record in scenario.call_records():
        quality = record.quality
        lines.append(
            "call none\n"
            if quality is None
            else f"call mos={quality.mos:.6f} "
            f"played={quality.packets_played}/{quality.packets_expected}\n"
        )
    lines.append(f"events_processed={scenario.sim.events_processed}\n")
    counters = scenario.stats.counters
    lines.extend(f"{name}={counters[name]}\n" for name in sorted(counters))
    scenario.stop()
    return "".join(lines)


#: Headers of the two halves of the media-knobs gate's text.
_KNOBS_OMITTED = "== media knobs omitted ==\n"
_KNOBS_OFF = "== media knobs set to off ==\n"


def media_knobs_off() -> str:
    """The E5 schedule with the media knobs omitted, then set to their off values."""
    halves = []
    for explicit_off in (False, True):
        registry.reset_all()
        halves.append(_e5_schedule(explicit_off))
    return _KNOBS_OMITTED + halves[0] + _KNOBS_OFF + halves[1]


def check_media_knobs_off(text: str) -> list[str]:
    """Media defaults are inert: both halves match line for line."""
    omitted, _, off = text.removeprefix(_KNOBS_OMITTED).partition(_KNOBS_OFF)
    if not omitted.strip():
        return ["the E5 schedule produced no output"]
    if omitted != off:
        return ["media defaults are not inert: the explicit-off E5 schedule differs"]
    return []


# ---------------------------------------------------------------------------
# Handover
# ---------------------------------------------------------------------------


def _drill_report(mode: str, trial: HandoverTrial) -> str:
    def first(values: list[float]) -> str:
        return f"{values[0]:.3f}" if values else "-"

    return (
        f"mode:        {mode}\n"
        f"established: {trial.established}\n"
        f"survived:    {trial.survived}\n"
        f"final state: {trial.final_state}\n"
        f"attempted/succeeded/abandoned: "
        f"{trial.attempted}/{trial.succeeded}/{trial.abandoned}\n"
        f"ssrc stable: {trial.ssrc_stable}\n"
        f"latency_ms:  {first(trial.latencies_ms)}\n"
        f"gap_ms:      {first(trial.gaps_ms)}\n"
    )


def handover_drills() -> str:
    """The seed-7 coverage-loss drill with handover, then without (baseline)."""
    enabled = run_handover_trial(handover=True, seed=7, loss_at=10.0)
    baseline = run_handover_trial(handover=False, seed=7, loss_at=10.0)
    return "\n".join(
        [
            "== handover drill ==",
            _drill_report("handover", enabled),
            "== baseline drill ==",
            _drill_report("baseline", baseline),
            "== handover trace slice ==",
            enabled.trace_jsonl,
        ]
    )


def legacy_call() -> str:
    """A handover-free 4-node chain call: the full trace export."""
    scenario = build_chain_call_scenario(hops=3, routing="aodv", seed=7, tracing=True)
    scenario.converge(5.0)
    scenario.phones["alice"].place_call(BOB, duration=6.0)
    scenario.sim.run(18.0)
    assert scenario.trace is not None
    export = scenario.trace.export_jsonl()
    scenario.stop()
    return export


def check_legacy_call(text: str) -> list[str]:
    """Without multihoming or a handover config, §5k emits nothing."""
    leaked = [
        line
        for line in text.splitlines()
        if '"kind":"handover.' in line or '"kind":"iface.' in line
    ]
    if leaked:
        return [f"handover-free run emitted {len(leaked)} handover/iface events"]
    return _trace_failures(text)


GATES: dict[str, Gate] = {
    "fault_mobile_aodv": Gate(fault_mobile_aodv),
    "lossy_mobile_aodv": Gate(lossy_mobile_aodv),
    "olsr_grid_call": Gate(olsr_grid_call),
    "fading_media_call": Gate(fading_media_call),
    "traced_chain_call": Gate(traced_chain_call, _trace_failures),
    "chaos_run": Gate(chaos_run, check_chaos_run),
    "overload_sweep": Gate(overload_sweep, check_overload_sweep),
    "metrics_export": Gate(metrics_export, check_metrics_export),
    "media_contrast": Gate(media_contrast, check_media_contrast),
    "media_knobs_off": Gate(media_knobs_off, check_media_knobs_off),
    "handover_drills": Gate(handover_drills),
    "legacy_call": Gate(legacy_call, check_legacy_call),
}


def run_fresh(name: str) -> str:
    """Run gate ``name`` in a new interpreter and return its canonical text."""
    src = str(Path(__file__).resolve().parents[2])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments.gates", name],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=300,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"gate {name!r} exited {result.returncode}:\n"
            + result.stderr.decode("utf-8", "replace")[-2000:]
        )
    return result.stdout.decode("utf-8")


def smoke(name: str) -> int:
    """Run gate ``name`` in this process and report its check; an exit status."""
    failures = GATES[name].check(GATES[name].run())
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"{name} gate ok")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in GATES:
        print(
            "usage: python -m repro.experiments.gates NAME\n"
            f"gates: {', '.join(GATES)}",
            file=sys.stderr,
        )
        return 2
    sys.stdout.buffer.write(GATES[argv[0]].run().encode("utf-8"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
