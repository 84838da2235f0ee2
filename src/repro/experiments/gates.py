"""Gate workloads: seeded runs whose canonical text is pinned by a digest.

The reproduction's contract is that a seeded run depends on its seed
alone: byte-identical across fresh interpreters and whatever ran before
it in the same one. :data:`GATES` names the workloads that hold the code
to it. Each gate is a zero-argument function that runs one seeded workload
and returns its result, whose ``str`` is the canonical text; a gate may
also carry a check that reads the result and lists the invariants it
fails to show. Every table of :data:`repro.experiments.artifacts.ARTIFACTS`
with a pin is a gate too, named like the table, with the artifact's check.
:func:`run_fresh` runs a list of gates, in order, in one new interpreter
and returns each gate's sha256 digest and check failures;
``tests/netsim/test_golden.py`` compares the digests with the committed
``tests/netsim/golden.json``.

Run gates by hand (no name prints the list)::

    PYTHONPATH=src python -m repro.experiments.gates chaos_run E1

Each line reads ``<sha256>  <gate>``, as ``sha256sum`` prints, followed by
one ``FAIL <gate>: <failure>`` line per failed check; the exit status is 1
when a check failed. ``str(GATES[name].run())`` is a gate's text.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.softphone import CallRecord
from repro.errors import MetricsError
from repro.experiments.artifacts import ARTIFACTS, BOB, MOS_SATISFIED, Artifact, table_runs
from repro.experiments.handover import HandoverTrial, run_handover_trial
from repro.experiments.media import run_media_point
from repro.faults.channel import GilbertElliottChannel, TimedGilbertElliottChannel
from repro.faults.harness import default_chaos_plan, run_chaos
from repro.faults.plan import FaultPlan
from repro.metrics.registry import render_prometheus
from repro.metrics.scraper import load_jsonl
from repro.overload.harness import (
    MODE_CONTROLLED,
    MODE_UNCONTROLLED,
    SweepReport,
    run_sweep,
    smoke_config,
)
from repro.scenarios import ManetConfig, ManetScenario, build_chain_call_scenario
from repro.trace.events import TraceError, parse_jsonl_line
from repro.trace.ladder import sip_ladder


@dataclass(frozen=True)
class Gate:
    """One named workload: ``run`` returns a result whose ``str`` is the
    canonical text; ``check`` reads that result and lists its failures."""

    run: Callable[[], Any]
    check: Callable[[Any], list[str]] = lambda result: []


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


class TracedCall(NamedTuple):
    """A call's record and its run's trace export, which is its text."""

    record: CallRecord
    jsonl: str

    def __str__(self) -> str:
        return self.jsonl


def traced_chain_call() -> TracedCall:
    """2-hop AODV chain, one traced call: the full JSONL trace export."""
    scenario = build_chain_call_scenario(hops=2, routing="aodv", seed=11, tracing=True)
    scenario.converge()
    record = scenario.call_and_wait("alice", BOB, duration=2.0)
    scenario.stop()
    assert scenario.trace is not None
    return TracedCall(record, scenario.trace.export_jsonl())


def check_traced_chain_call(call: TracedCall) -> list[str]:
    """The call establishes, and its valid trace shows every layer and the INVITE."""
    failures = _trace_failures(call.jsonl)
    if failures:
        return failures
    if not call.record.established:
        failures.append("the call did not establish")
    events = [parse_jsonl_line(line) for line in call.jsonl.splitlines()]
    categories = {event.category for event in events}
    failures.extend(
        f"no {category}.* events in the trace"
        for category in ("packet", "aodv", "slp", "sip")
        if category not in categories
    )
    if "INVITE" not in sip_ladder(events):
        failures.append("the SIP ladder does not show the INVITE")
    return failures


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


def overload_sweep() -> SweepReport:
    """The reduced offered-load sweep (1 and 2 cps); its text is the rendered report."""
    return run_sweep(smoke_config())


def check_overload_sweep(report: SweepReport) -> list[str]:
    """At the top load admission sheds with 503s; without it the queues collapse."""
    top = max(point.load for point in report.points)
    controlled = report.point(top, MODE_CONTROLLED)
    uncontrolled = report.point(top, MODE_UNCONTROLLED)
    if controlled is None or uncontrolled is None:
        return ["the sweep report is missing its top-load points"]
    failures = []
    if controlled.rejected_503 == 0:
        failures.append("no 503 admission rejections at the overload point")
    if controlled.admission_rejected == 0:
        failures.append("sip.admission_rejected counter never moved")
    if uncontrolled.queue_drops == 0:
        failures.append("bounded TX queues shed nothing without admission")
    if controlled.ok_rate <= uncontrolled.ok_rate:
        failures.append(
            f"admission control did not help at {top:.1f} cps (controlled "
            f"{controlled.ok_rate:.3f} <= uncontrolled {uncontrolled.ok_rate:.3f})"
        )
    if uncontrolled.rejected_503 or uncontrolled.admission_rejected:
        failures.append("uncontrolled run unexpectedly produced 503 rejections")
    if report.knee is None:
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
    "traced_chain_call": Gate(traced_chain_call, check_traced_chain_call),
    "chaos_run": Gate(chaos_run, check_chaos_run),
    "overload_sweep": Gate(overload_sweep, check_overload_sweep),
    "metrics_export": Gate(metrics_export, check_metrics_export),
    "media_contrast": Gate(media_contrast, check_media_contrast),
    "media_knobs_off": Gate(media_knobs_off, check_media_knobs_off),
    "handover_drills": Gate(handover_drills),
    "legacy_call": Gate(legacy_call, check_legacy_call),
}


def _table_gate(artifact: Artifact, run: Callable[[], Any]) -> Gate:
    """One table's gate: what the artifact pins of the table, and its check."""
    pin = artifact.pin
    assert pin is not None and artifact.check is not None
    return Gate(lambda: pin(run()), artifact.check)


GATES.update(
    (name, _table_gate(artifact, run))
    for key, artifact in ARTIFACTS.items()
    if artifact.pin is not None
    for name, run in table_runs(key).items()
)


@dataclass(frozen=True)
class GateResult:
    """One gate's outcome in a :func:`run_fresh` interpreter."""

    digest: str
    failures: tuple[str, ...]


def run_fresh(names: Sequence[str], hash_seed: int = 0) -> dict[str, GateResult]:
    """Run the gates ``names`` in order in one new interpreter, with no reset
    between them, under ``PYTHONHASHSEED=hash_seed``."""
    src = str(Path(__file__).resolve().parents[2])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments.gates", *names],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": str(hash_seed)},
        timeout=600,
    )
    digests: dict[str, str] = {}
    failures: dict[str, list[str]] = {}
    for line in result.stdout.decode("utf-8").splitlines():
        if line.startswith("FAIL "):
            name, _, failure = line.removeprefix("FAIL ").partition(": ")
            failures.setdefault(name, []).append(failure)
        else:
            digest, _, name = line.partition("  ")
            digests[name] = digest
    if sorted(digests) != sorted(names):
        raise RuntimeError(
            f"gates {list(names)!r} exited {result.returncode}:\n"
            + result.stderr.decode("utf-8", "replace")[-2000:]
        )
    return {
        name: GateResult(digests[name], tuple(failures.get(name, ()))) for name in names
    }


def main(argv: list[str]) -> int:
    if not argv or any(name not in GATES for name in argv):
        print(
            "usage: python -m repro.experiments.gates NAME [NAME ...]\n"
            f"gates: {', '.join(GATES)}",
            file=sys.stderr,
        )
        return 2
    failed = False
    for name in argv:
        gate = GATES[name]
        result = gate.run()
        print(f"{hashlib.sha256(str(result).encode('utf-8')).hexdigest()}  {name}")
        for failure in gate.check(result):
            failed = True
            print(f"FAIL {name}: {' '.join(failure.split())}")
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
