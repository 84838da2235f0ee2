"""Chaos harness: a canned fault-injection workload with recovery reporting.

The canonical scenario is the acceptance case of the fault subsystem: a
redundant chain (nodes reach their neighbors *two* hops out, so the MANET
survives any single crash) with two Internet gateways at the far end.
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
from repro.errors import ConfigError
from repro.faults.metrics import RecoveryReport, analyze_recovery
from repro.faults.plan import FaultPlan
from repro.scenarios import ManetConfig, ManetScenario

#: Node spacing that puts *two* chain neighbors inside the default 150 m
#: transmit range — the redundancy that makes single-node crashes survivable.
REDUNDANT_SPACING = 70.0

#: Shortest chain whose middle relay (node ``(hops + 1) // 2``) is neither a
#: phone's endpoint nor one of the two gateways on the last two nodes.
MIN_CHAOS_HOPS = 4


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


def default_chaos_plan(n_nodes: int, t0: float) -> FaultPlan:
    """Relay crash + abrupt gateway failure + relay restart, around ``t0``.

    ``t0`` is when the call workload starts (after convergence); the relay
    crash lands mid-call, the primary gateway dies shortly after, and the
    relay comes back late enough that the first call's fate was decided
    without it.
    """
    relay = n_nodes // 2
    primary_gateway = n_nodes - 2  # closest gateway to the phones' end
    return (
        FaultPlan()
        .crash(t0 + 5.0, relay)
        .gateway_down(t0 + 8.0, primary_gateway, graceful=False)
        .restart(t0 + 30.0, relay)
    )


def build_chaos_scenario(
    hops: int = 4,
    routing: str = "aodv",
    seed: int = 1,
    tracing: bool = True,
    plan: FaultPlan | None = None,
) -> ManetScenario:
    """A redundant chain with two gateways and the default fault plan armed.

    alice sits at node 0, bob at node ``hops``, and carol rides the middle
    relay (so its crash/restart exercises phone re-registration too); the
    last two nodes carry wired Internet attachments. Raises
    :class:`ConfigError` unless ``hops >= MIN_CHAOS_HOPS`` (4): on a shorter
    chain the crashed relay is also the primary gateway or a phone's node.
    """
    if hops < MIN_CHAOS_HOPS:
        raise ConfigError(f"the chaos chain needs hops >= {MIN_CHAOS_HOPS}, got {hops}")
    n_nodes = hops + 1
    t0 = 12.0 if routing == "olsr" else 3.0
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=n_nodes,
            topology="chain",
            routing=routing,
            seed=seed,
            spacing=REDUNDANT_SPACING,
            internet_gateways=2,
            tracing=tracing,
            faults=plan if plan is not None else default_chaos_plan(n_nodes, t0),
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(hops, "bob")
    scenario.add_phone(n_nodes // 2, "carol")
    return scenario


def run_chaos(
    hops: int = 4,
    routing: str = "aodv",
    seed: int = 1,
    tracing: bool = True,
) -> ChaosResult:
    """Run the canonical chaos workload and report recovery metrics.

    Two calls: the first spans the relay crash (it may or may not survive
    the route repair — both outcomes are recorded); the second is placed
    after the churn and is the recovery criterion. The run then continues
    long enough for the surviving gateway to pick up the orphaned tunnel
    clients, so failover latency appears in the report.
    """
    scenario = build_chaos_scenario(hops=hops, routing=routing, seed=seed, tracing=tracing)
    plan = scenario.config.faults
    assert plan is not None
    scenario.converge()
    first = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=15.0)
    second = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=5.0)
    # Liveness detection on the dead gateway takes ~2 renew intervals; run
    # far enough past it that the failover reconnect is in the trace.
    last_fault = max(event.at for event in plan.events)
    scenario.sim.run(max(scenario.sim.now, last_fault) + 60.0)
    scenario.stop()
    events = scenario.trace.events if scenario.trace is not None else []
    report = analyze_recovery(events, scenario.call_records())
    return ChaosResult(
        scenario=scenario, plan=plan, report=report, first_call=first, second_call=second
    )
