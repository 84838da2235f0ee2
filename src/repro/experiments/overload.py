"""O1: the offered-load soak that measures graceful degradation (§5f).

The workload is the overload acceptance case: a short relay chain whose
middle node carries every call's RTP both ways, swept across offered call
rates. Each sweep point runs twice — once *uncontrolled* (bounded TX
queues only, no admission control) and once *controlled* (the same queues
plus 503-with-Retry-After admission at the proxies) — so the report shows
the collapse the paper's overload story is about and the graceful knee the
§5f machinery buys back.

Everything is deterministic: call arrivals are a fixed lattice (no RNG),
per-point scenarios are freshly built from one seed, and the report is
rendered with fixed-width formatting so two runs match byte for byte, in
one process or in fresh interpreters (each scenario's simulator owns its
protocol identifier streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import SiphocConfig
from repro.netsim.node import InterfaceTxQueue
from repro.netsim.stats import SampleSeries
from repro.scenarios import ManetConfig, ManetScenario
from repro.sip.proxy import AdmissionControl

MODE_UNCONTROLLED = "uncontrolled"
MODE_CONTROLLED = "controlled"

ROUTING = "aodv"
SEED = 7
HOPS = 2  # chain length; the middle node relays every call
CALL_DURATION = 6.0  # talk time after answer (auto hang-up)
#: A call "succeeds" when it establishes within this many seconds of
#: dialing; congested setups that crawl past it count as degraded.
SETUP_SLA = 4.0
TX_QUEUE_CAPACITY = 16
ADMISSION_MAX_INFLIGHT = 1
ADMISSION_QUEUE_WATERMARK = 0.75
#: Controlled success rate a load must clear to count as pre-knee.
KNEE_THRESHOLD = 0.8


@dataclass
class LoadPoint:
    """Outcome of one (offered load, mode) run."""

    load: float
    mode: str  # MODE_UNCONTROLLED | MODE_CONTROLLED
    attempted: int
    ok: int  # established within the SLA *with* acceptable media (MOS >= 3.6)
    established: int  # established at all, media quality regardless
    rejected_503: int
    failed_other: int  # failed otherwise, or still unresolved at run end
    setup_p50: float  # over all established calls (nan when none)
    setup_p95: float
    mos_mean: float  # E-model MOS over scored established calls (nan when none)
    queue_drops: int  # txqueue.drops across every node
    admission_rejected: int  # sip.admission_rejected across every proxy

    @property
    def ok_rate(self) -> float:
        return self.ok / self.attempted if self.attempted else 0.0


@dataclass
class SweepReport:
    """Every sweep point plus the knee / graceful-degradation analysis."""

    #: Seconds of call arrivals per point.
    window: float
    points: list[LoadPoint] = field(default_factory=list)

    def point(self, load: float, mode: str) -> LoadPoint | None:
        for candidate in self.points:
            if candidate.mode == mode and abs(candidate.load - load) < 1e-9:
                return candidate
        return None

    @property
    def knee(self) -> float | None:
        """Highest load whose *controlled* run clears the knee threshold."""
        passing = [
            p.load
            for p in self.points
            if p.mode == MODE_CONTROLLED and p.ok_rate >= KNEE_THRESHOLD
        ]
        return max(passing) if passing else None

    def graceful(self) -> tuple[float, float, float, bool] | None:
        """(knee, rate@knee, rate@2x, passed) — None when 2x isn't swept.

        Passed means the controlled success rate at twice the knee load
        holds at least half the at-knee rate: overload sheds calls instead
        of collapsing everyone's service.
        """
        knee = self.knee
        if knee is None:
            return None
        at_knee = self.point(knee, MODE_CONTROLLED)
        at_double = self.point(knee * 2, MODE_CONTROLLED)
        if at_knee is None or at_double is None:
            return None
        passed = at_double.ok_rate >= 0.5 * at_knee.ok_rate
        return knee, at_knee.ok_rate, at_double.ok_rate, passed

    # -- rendering ----------------------------------------------------------
    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        lines = [
            f"offered-load soak: {HOPS + 1}-node chain ({HOPS} hops), "
            f"{ROUTING}, seed {SEED}",
            f"window {self.window:.1f}s, call duration {CALL_DURATION:.1f}s, "
            f"setup SLA {SETUP_SLA:.1f}s, one caller/callee pair",
            f"tx queue: capacity {TX_QUEUE_CAPACITY}, policy {InterfaceTxQueue.POLICY}",
            f"admission (controlled runs): max_inflight={ADMISSION_MAX_INFLIGHT}, "
            f"queue_watermark={ADMISSION_QUEUE_WATERMARK:.2f}, "
            f"retry_after={AdmissionControl.RETRY_AFTER}s",
            "",
            "load(cps)  mode           att    ok   rate    est  p50(s)  p95(s)"
            "   mos   503  other  qdrops  admrej",
        ]
        for p in self.points:
            lines.append(
                f"{p.load:>9.2f}  {p.mode:<13}{p.attempted:>4}  {p.ok:>4}  "
                f"{p.ok_rate:>5.3f}  {p.established:>5}  {_fmt(p.setup_p50):>6}  "
                f"{_fmt(p.setup_p95):>6}  {_fmt2(p.mos_mean):>4}  {p.rejected_503:>4}  "
                f"{p.failed_other:>5}  {p.queue_drops:>6}  {p.admission_rejected:>6}"
            )
        lines.append("")
        knee = self.knee
        if knee is None:
            lines.append(
                f"knee: none (no controlled load reached rate >= "
                f"{KNEE_THRESHOLD:.2f})"
            )
            return "\n".join(lines) + "\n"
        lines.append(
            f"knee (controlled, rate >= {KNEE_THRESHOLD:.2f}): {knee:.2f} cps"
        )
        analysis = self.graceful()
        if analysis is None:
            lines.append(f"graceful degradation: n/a ({knee * 2:.2f} cps not swept)")
        else:
            _, at_knee, at_double, passed = analysis
            ratio = at_double / at_knee if at_knee else 0.0
            verdict = "graceful (>= 0.50)" if passed else "COLLAPSED (< 0.50)"
            lines.append(
                f"controlled rate at {knee * 2:.2f} cps: {at_double:.3f} "
                f"({ratio:.2f} of knee rate {at_knee:.3f}) -> {verdict}"
            )
        uncontrolled = self.point(knee * 2, MODE_UNCONTROLLED)
        if uncontrolled is not None:
            lines.append(
                f"uncontrolled rate at {knee * 2:.2f} cps: "
                f"{uncontrolled.ok_rate:.3f}"
            )
        return "\n".join(lines) + "\n"

    @property
    def graceful_pass(self) -> bool:
        analysis = self.graceful()
        return analysis is not None and analysis[3]


def _fmt(value: float) -> str:
    return "-" if math.isnan(value) else f"{value:.3f}"


def _fmt2(value: float) -> str:
    return "-" if math.isnan(value) else f"{value:.2f}"


# ---------------------------------------------------------------------------
# Scenario construction and the per-point run
# ---------------------------------------------------------------------------


def build_overload_scenario(controlled: bool) -> ManetScenario:
    """A relay chain with one phone pair across it.

    The caller sits on node 0 and the callee on the far end, so every
    call's signaling and RTP crosses the same middle relay — the shared
    bottleneck the sweep saturates. Overload comes from *overlapping*
    calls between the pair, not extra phones: a SIPHoc proxy advertises a
    single contact service per node, so one registered user per node is
    the deployment shape every scenario in this repo uses. Both modes get
    the same bounded TX queues; only the controlled mode arms proxy
    admission control, so the delta between the two curves is exactly
    what admission buys.
    """
    siphoc = None
    if controlled:
        siphoc = SiphocConfig(
            admission_max_inflight=ADMISSION_MAX_INFLIGHT,
            admission_queue_watermark=ADMISSION_QUEUE_WATERMARK,
        )
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=HOPS + 1,
            topology="chain",
            routing=ROUTING,
            seed=SEED,
            tx_queue_capacity=TX_QUEUE_CAPACITY,
            siphoc=siphoc,
        )
    )
    scenario.start()
    scenario.add_phone(0, "caller")
    scenario.add_phone(HOPS, "callee")
    return scenario


def run_load_point(load: float, controlled: bool, window: float, grace: float) -> LoadPoint:
    """Run one (offered load, mode) point on a freshly built scenario.

    A short warm-up call (not counted) primes the route and the SLP
    contact cache, then arrivals follow a deterministic lattice: measured
    call ``k`` dials at ``k / load`` seconds into the ``window``; the run
    goes on for ``grace`` seconds more so in-flight calls resolve. No RNG
    is involved anywhere in the workload.
    """
    scenario = build_overload_scenario(controlled)
    if scenario.metrics is not None:
        # Label this point's section so the combined export reads as a
        # sweep: `python -m repro.metrics dash` shows the knee per point.
        scenario.metrics.label = (
            f"{load:g}cps-{MODE_CONTROLLED if controlled else MODE_UNCONTROLLED}"
        )
    scenario.converge()
    scenario.call_and_wait("caller", "sip:callee@voicehoc.ch", duration=0.5)
    warmup_records = len(scenario.phones["caller"].history)
    caller = scenario.phones["caller"]
    interval = 1.0 / load
    n_calls = int(round(load * window))
    for k in range(n_calls):
        scenario.sim.schedule(
            k * interval,
            caller.place_call,
            "sip:callee@voicehoc.ch",
            CALL_DURATION,
        )
    scenario.sim.run(scenario.sim.now + window + grace)
    scenario.stop()

    outgoing = [
        record
        for record in caller.history[warmup_records:]
        if record.direction == "out"
    ]
    setups = SampleSeries()
    mos = SampleSeries()
    ok = established = rejected = failed_other = 0
    for record in outgoing:
        if record.established:
            established += 1
            setups.add(record.setup_delay)
            quality = record.quality
            if quality is not None:
                mos.add(quality.mos)
            # A call only counts as OK if it set up within the SLA *and*
            # its received stream scored user-acceptable on the E-model —
            # an established call whose audio is unusable is an overload
            # casualty, not a success.
            if (
                record.setup_delay <= SETUP_SLA
                and quality is not None
                and quality.is_acceptable
            ):
                ok += 1
        elif record.failure_status == 503:
            rejected += 1
        else:
            failed_other += 1
    return LoadPoint(
        load=load,
        mode=MODE_CONTROLLED if controlled else MODE_UNCONTROLLED,
        attempted=len(outgoing),
        ok=ok,
        established=established,
        rejected_503=rejected,
        failed_other=failed_other,
        setup_p50=setups.percentile(50),
        setup_p95=setups.percentile(95),
        mos_mean=mos.mean,
        queue_drops=scenario.stats.count("txqueue.drops"),
        admission_rejected=scenario.stats.count("sip.admission_rejected"),
    )


def run_sweep(
    loads: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    window: float = 16.5,
    grace: float = 14.0,
) -> SweepReport:
    """O1: every offered call rate in ``loads``, uncontrolled then controlled.

    Keep the loads doubling so every candidate knee has its 2x point in
    the sweep. ``window`` is deliberately a half-integer: an odd call
    count at the 2-cps point keeps the graceful-degradation ratio
    strictly above the 0.50 bar instead of exactly on it.
    """
    report = SweepReport(window=window)
    for load in loads:
        for controlled in (False, True):
            report.points.append(run_load_point(load, controlled, window, grace))
    return report
