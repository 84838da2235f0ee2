"""Recovery metrics: how fast the stack heals after injected faults.

All metrics are computed from the trace event stream (``fault.*`` markers
correlated with the recovery signals that follow them) plus the call
records of the scenario's phones:

* **re-registration latency** — ``fault.node_restart`` on a node to the
  first ``slp.entry_learned`` on another node for a URL the restarted node
  advertised (``slp.advertise``) since: the moment the rest of the MANET
  can reach its phones again. (The phone's own REGISTER goes to its
  co-located proxy at the restart instant, so it would read 0 whatever
  the network does.)
* **gateway failover time** — ``fault.gateway_down`` to the next
  ``tunnel.connected`` on each client node whose tunnel to the downed
  gateway drops after the fault (the full detect → re-discover →
  re-attach cycle); a client that had already lost its tunnel, say to
  its own crash, is not failing over.
* **route re-discovery time** — ``aodv.discovery_complete`` latencies
  observed at or after the first fault (discoveries forced by the churn).
* **call outcomes** — placed / established / completed / failed, from
  :class:`~repro.core.softphone.CallRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.events import TraceEvent


@dataclass
class RecoveryReport:
    """Aggregated recovery metrics for one chaos run."""

    faults_injected: int = 0
    reregistration_latency: dict[str, float] = field(default_factory=dict)
    gateway_failover_latency: dict[str, float] = field(default_factory=dict)
    route_rediscovery_latency: list[float] = field(default_factory=list)
    calls_placed: int = 0
    calls_established: int = 0
    calls_completed: int = 0
    calls_failed: int = 0

    def render(self) -> str:
        lines = [f"faults injected: {self.faults_injected}"]
        lines.append(
            f"calls: {self.calls_placed} placed, {self.calls_established} "
            f"established, {self.calls_completed} completed, "
            f"{self.calls_failed} failed"
        )
        if self.reregistration_latency:
            lines.append("re-registration latency after restart:")
            for node, latency in sorted(self.reregistration_latency.items()):
                lines.append(f"  {node}: {latency:.2f}s")
        if self.gateway_failover_latency:
            lines.append("gateway failover latency (per client):")
            for node, latency in sorted(self.gateway_failover_latency.items()):
                lines.append(f"  {node}: {latency:.2f}s")
        if self.route_rediscovery_latency:
            latencies = self.route_rediscovery_latency
            lines.append(
                f"route re-discoveries under faults: {len(latencies)} "
                f"(mean {sum(latencies) / len(latencies):.3f}s, "
                f"max {max(latencies):.3f}s)"
            )
        return "\n".join(lines)


def analyze_recovery(events: list[TraceEvent], call_records=()) -> RecoveryReport:
    """Compute a :class:`RecoveryReport` from a trace and call records."""
    report = RecoveryReport()
    fault_times = [event.t for event in events if event.category == "fault"]
    report.faults_injected = len(fault_times)
    first_fault = min(fault_times) if fault_times else None

    # Re-registration latency: restart marker -> another node first learns a
    # URL the restarted node advertised since.
    for index, event in enumerate(events):
        if event.kind != "fault.node_restart":
            continue
        advertised: set[object] = set()
        for later in events[index + 1 :]:
            if later.kind == "slp.advertise" and later.node == event.node:
                advertised.add(later.detail.get("url"))
            elif (
                later.kind == "slp.entry_learned"
                and later.node != event.node
                and later.detail.get("url") in advertised
            ):
                report.reregistration_latency.setdefault(
                    event.node, later.t - event.t
                )
                break

    # Gateway failover: gateway_down -> next tunnel.connected of each client
    # whose tunnel to that gateway drops after the fault.
    for index, event in enumerate(events):
        if event.kind != "fault.gateway_down":
            continue
        orphaned: set[str] = set()
        for later in events[index + 1 :]:
            if later.kind == "tunnel.disconnected" and later.detail.get("gateway") == event.node:
                orphaned.add(later.node)
            elif later.kind == "tunnel.connected" and later.node in orphaned:
                orphaned.discard(later.node)
                report.gateway_failover_latency.setdefault(
                    later.node, later.t - event.t
                )

    # Route re-discoveries forced by the churn.
    if first_fault is not None:
        for event in events:
            if event.kind == "aodv.discovery_complete" and event.t >= first_fault:
                latency = event.detail.get("latency")
                if isinstance(latency, (int, float)):
                    report.route_rediscovery_latency.append(float(latency))

    for record in call_records:
        report.calls_placed += 1
        if record.established:
            report.calls_established += 1
        if record.established and record.final_state == "terminated":
            report.calls_completed += 1
        else:
            report.calls_failed += 1
    return report
