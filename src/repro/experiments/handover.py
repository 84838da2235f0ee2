"""Mid-call handover experiment: coverage loss under fading and motion (§5k).

H1 injects a radio outage (``interface_down``) into the middle of an
established multi-hop call and measures whether the session survives —
baseline vs. the multihomed handover policy — across clean, fading
(time-domain Gilbert–Elliott) and mobile conditions. The artifact's
claim is the contrast: without handover every coverage-loss event kills
the call's media; with it, the call re-anchors onto the wired uplink in
well under the RTP silence trigger, same RTP session, same SSRC.

The survival criterion is media-based, not signaling-based: a baseline
call whose radio died still *looks* established to SIP (the BYE cannot
escape either), so H1 asks whether inbound media was flowing at the
scheduled end of the talk spurt.

The same trial, at seed 7 with the outage at 10 s, is the coverage-loss
drill that ``tests/core/test_handover.py`` and the ``handover_drills``
gate run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SiphocConfig
from repro.experiments.tables import Table
from repro.faults.channel import TimedGilbertElliottChannel
from repro.faults.plan import FaultPlan
from repro.netsim.stats import SampleSeries
from repro.scenarios import ManetConfig, ManetScenario
from repro.sip.ua import CallState

#: (label, mean_good, mean_bad, mobility) condition rows of the H1 table.
CONDITIONS: tuple[tuple[str, float | None, float | None, bool], ...] = (
    ("clean", None, None, False),
    ("fading", 1.5, 0.04, False),
    ("mobile", None, None, True),
)

#: Trace categories kept in a trial's ``trace_jsonl`` slice.
TRACE_CATEGORIES = ("handover", "iface", "fault")


@dataclass
class HandoverTrial:
    """Observables of one coverage-loss trial."""

    established: bool
    #: Inbound media still flowing at alice near the scheduled call end.
    survived: bool
    final_state: str
    attempted: int
    succeeded: int
    abandoned: int
    #: Same RtpSession and SSRC before and after the outage.
    ssrc_stable: bool
    #: Trigger to re-INVITE confirmed, per completed handover, in trace order.
    latencies_ms: list[float]
    #: Inbound silence spanning the outage, per restored media stream.
    gaps_ms: list[float]
    #: JSONL of the handover, iface and fault trace events.
    trace_jsonl: str

    @property
    def media_gap_ms(self) -> float | None:
        return self.gaps_ms[0] if self.gaps_ms else None


def run_handover_trial(
    handover: bool = True,
    seed: int = 3,
    hops: int = 3,
    mean_good: float | None = None,
    mean_bad: float | None = None,
    mobility: bool = False,
    talk_time: float = 16.0,
    loss_at: float = 12.0,
    routing: str = "aodv",
) -> HandoverTrial:
    """One coverage-loss trial: alice on node 0, bob on node ``hops``.

    Both ends are multihomed (wired uplink without the gateway role).
    ``loss_at`` is the absolute sim time alice's radio dies; the call is
    placed after a 5 s convergence window, so the outage lands a few
    seconds into the established call. A trial that never establishes
    (fades can eat signaling too) reports ``established=False``.
    """
    channel = None
    if mean_good is not None and mean_bad is not None:
        channel = TimedGilbertElliottChannel(mean_good=mean_good, mean_bad=mean_bad)
    plan = FaultPlan(channel=channel).interface_down(at=loss_at, node=0)
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=hops + 1,
            topology="chain",
            routing=routing,
            seed=seed,
            multihomed=(0, hops),
            siphoc=SiphocConfig(handover=True) if handover else None,
            faults=plan,
            mobility=mobility,
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(hops, "bob")
    scenario.converge(5.0)
    alice = scenario.phones["alice"]
    call = alice.place_call("sip:bob@voicehoc.ch", duration=talk_time)
    sim = scenario.sim
    sim.run_until(
        lambda: call.state in (CallState.ESTABLISHED, CallState.FAILED),
        timeout=loss_at - sim.now - 1.0,
        step=0.1,
    )
    established = call.state is CallState.ESTABLISHED
    # The session object is ours, so it stays readable after the phone
    # retires the call.
    session = alice.media_session(call.call_id)
    ssrc_before = session.ssrc if session is not None else None
    call_end = sim.now + talk_time
    sim.run(call_end + 12.0)
    survived = bool(
        established
        and session is not None
        and session.last_rx_at is not None
        and call_end - session.last_rx_at <= 1.0
    )
    trace = scenario.trace
    assert trace is not None
    events = [event for event in trace.events if event.category in TRACE_CATEGORIES]
    stats = scenario.stats.counters
    scenario.stop()
    return HandoverTrial(
        established=established,
        survived=survived,
        final_state=call.state.name,
        attempted=stats.get("handover.attempted", 0),
        succeeded=stats.get("handover.succeeded", 0),
        abandoned=stats.get("handover.abandoned", 0),
        ssrc_stable=session is not None and session.ssrc == ssrc_before,
        latencies_ms=[
            e.detail["latency_ms"] for e in events if e.kind == "handover.complete"
        ],
        gaps_ms=[
            e.detail["gap_ms"] for e in events if e.kind == "handover.media_restored"
        ],
        trace_jsonl="".join(event.to_json_line() + "\n" for event in events),
    )


def handover_table(
    seeds: tuple[int, ...] = (1, 2, 3),
    hops: int = 3,
    conditions: tuple[tuple[str, float | None, float | None, bool], ...] = CONDITIONS,
    talk_time: float = 16.0,
    routing: str = "aodv",
) -> Table:
    """H1: call survival across coverage-loss events, baseline vs handover."""
    table = Table(
        title=f"H1: mid-call coverage loss, baseline vs handover ({routing}, {hops} hops)",
        columns=[
            "condition",
            "mode",
            "trials",
            "estab",
            "loss_events",
            "survived",
            "survival_pct",
            "lat_p50_ms",
            "lat_p95_ms",
            "gap_p50_ms",
        ],
    )
    for label, mean_good, mean_bad, mobility in conditions:
        for mode, enabled in (("baseline", False), ("handover", True)):
            established = 0
            survived = 0
            latencies = SampleSeries()
            gaps = SampleSeries()
            for seed in seeds:
                trial = run_handover_trial(
                    handover=enabled,
                    seed=seed,
                    hops=hops,
                    mean_good=mean_good,
                    mean_bad=mean_bad,
                    mobility=mobility,
                    talk_time=talk_time,
                    routing=routing,
                )
                if not trial.established:
                    continue
                established += 1
                survived += 1 if trial.survived else 0
                for latency in trial.latencies_ms:
                    latencies.add(latency)
                for gap in trial.gaps_ms:
                    gaps.add(gap)
            table.add_row(
                label,
                mode,
                len(seeds),
                established,
                established,  # one coverage-loss event per established trial
                survived,
                round(100.0 * survived / established, 1) if established else float("nan"),
                round(latencies.percentile(50), 1),
                round(latencies.percentile(95), 1),
                round(gaps.percentile(50), 1),
            )
    table.add_note(
        "survival = inbound media still flowing at the scheduled end of the"
        " talk spurt (a dead radio leaves SIP state 'established' either way)"
    )
    table.add_note(
        "one interface_down coverage-loss event is injected per trial;"
        " latency is trigger-to-re-INVITE-confirmed, gap is inbound silence"
    )
    return table
