"""R1: the chaos run, a canned fault-injection workload with recovery reporting.

The canonical scenario is the acceptance case of the fault subsystem: a
redundant 4-hop chain (nodes reach their neighbors *two* hops out, so the
MANET survives any single crash) with two Internet gateways at the far end.
Mid-call the middle relay crashes and the primary gateway fails abruptly;
the workload then verifies that a follow-up call establishes over the
repaired route and measures how long re-registration, route re-discovery
and gateway failover took.

Kept out of ``repro.faults.__init__`` on purpose: this module imports
``repro.scenarios`` (which itself imports the faults package), so pulling
it into the package namespace would create an import cycle. Import it as
``from repro.faults.harness import run_chaos``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.softphone import CallRecord
from repro.faults.metrics import RecoveryReport, analyze_recovery
from repro.faults.plan import FaultPlan
from repro.scenarios import ManetConfig, ManetScenario

#: Node spacing that puts *two* chain neighbors inside the default 150 m
#: transmit range — the redundancy that makes single-node crashes survivable.
REDUNDANT_SPACING = 70.0

#: alice sits on node 0 and bob on node ``HOPS``; the last two nodes are the
#: gateways, so the middle relay (carol's node) is neither.
HOPS = 4
RELAY = (HOPS + 1) // 2
PRIMARY_GATEWAY = HOPS - 1  # the gateway closer to the phones' end
SEED = 7
#: When the call workload starts, after AODV convergence.
T0 = 3.0


@dataclass
class ChaosResult:
    """Everything a caller needs to judge one chaos run."""

    scenario: ManetScenario
    plan: FaultPlan
    report: RecoveryReport
    first_call: CallRecord
    second_call: CallRecord

    @property
    def recovered(self) -> bool:
        """Did the workload survive: the post-fault call established?"""
        return self.second_call.established

    def __str__(self) -> str:
        plan = "".join(f"\n  {line}" for line in self.plan.describe().splitlines())
        return (
            f"R1: chaos run ({HOPS + 1}-node redundant chain, aodv, seed {SEED})\n"
            f"fault plan:{plan}\n\n{self.report.render()}\n\n"
            f"post-fault call re-established: {'yes' if self.recovered else 'NO'}"
        )


def chaos_plan() -> FaultPlan:
    """Relay crash + abrupt gateway failure + relay restart, around ``T0``.

    The relay crash lands mid-call, the primary gateway dies shortly
    after, and the relay comes back late enough that the first call's
    fate was decided without it.
    """
    return (
        FaultPlan()
        .crash(T0 + 5.0, RELAY)
        .gateway_down(T0 + 8.0, PRIMARY_GATEWAY, graceful=False)
        .restart(T0 + 30.0, RELAY)
    )


def build_chaos_scenario() -> ManetScenario:
    """The traced redundant chain with two gateways and the chaos plan armed.

    alice sits at node 0, bob at node ``HOPS``, and carol rides the middle
    relay (so its crash/restart exercises phone re-registration too); the
    last two nodes carry wired Internet attachments.
    """
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=HOPS + 1,
            topology="chain",
            routing="aodv",
            seed=SEED,
            spacing=REDUNDANT_SPACING,
            internet_gateways=2,
            tracing=True,
            faults=chaos_plan(),
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(HOPS, "bob")
    scenario.add_phone(RELAY, "carol")
    return scenario


def run_chaos() -> ChaosResult:
    """Run the chaos workload and report recovery metrics.

    Two calls: the first spans the relay crash (it may or may not survive
    the route repair — both outcomes are recorded); the second is placed
    after the churn and is the recovery criterion. The run then continues
    long enough for the surviving gateway to pick up the orphaned tunnel
    clients, so failover latency appears in the report.
    """
    scenario = build_chaos_scenario()
    plan = scenario.config.faults
    assert plan is not None and scenario.trace is not None
    scenario.converge()
    first = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=15.0)
    second = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=5.0)
    # Liveness detection on the dead gateway takes ~2 renew intervals; run
    # far enough past it that the failover reconnect is in the trace.
    last_fault = max(event.at for event in plan.events)
    scenario.sim.run(max(scenario.sim.now, last_fault) + 60.0)
    scenario.stop()
    report = analyze_recovery(scenario.trace.events, scenario.call_records())
    return ChaosResult(
        scenario=scenario, plan=plan, report=report, first_call=first, second_call=second
    )
