"""Standard instrument set for a :class:`~repro.scenarios.ManetScenario`.

``install_scenario_instruments(scenario)`` registers the gauges the paper's
dynamics questions need — queue depths climbing toward the overload knee,
SLP cache churn, route-table growth, lease occupancy — plus per-scrape
depth histograms. Every callback is a read-only view over live scenario
state: aggregation happens at scrape time, so between scrapes the
instruments cost nothing and the simulation cannot tell they exist.

Gauge callbacks are ``functools.partial`` bindings of module-level
functions (never lambdas or bound closures stored on the scenario): the
callbacks survive :meth:`ManetScenario.restart_node` because they iterate
``scenario.stacks`` / ``scenario.phones`` at call time instead of
capturing the component objects that a restart replaces.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.metrics.registry import DEPTH_BUCKETS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenarios import ManetScenario

#: Bucket bounds for route-table sizes (they grow past queue depths).
ROUTE_BUCKETS = (0.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


# -- aggregation helpers (module-level, so each gauge is a plain partial) ----

def _txqueue_depth_sum(scenario: "ManetScenario") -> int:
    return sum(
        node.tx_queue.depth for node in scenario.nodes if node.tx_queue is not None
    )


def _txqueue_depth_max(scenario: "ManetScenario") -> int:
    depths = [
        node.tx_queue.depth for node in scenario.nodes if node.tx_queue is not None
    ]
    return max(depths) if depths else 0


def _txqueue_peak_depth(scenario: "ManetScenario") -> int:
    peaks = [
        node.tx_queue.peak_depth for node in scenario.nodes if node.tx_queue is not None
    ]
    return max(peaks) if peaks else 0


def _txqueue_dropped(scenario: "ManetScenario") -> int:
    return sum(
        node.tx_queue.dropped for node in scenario.nodes if node.tx_queue is not None
    )


def _sip_inflight_sum(scenario: "ManetScenario") -> int:
    return sum(stack.proxy.inflight_forwards for stack in scenario.stacks)


def _sip_inflight_peak(scenario: "ManetScenario") -> int:
    peaks = [stack.proxy.inflight_peak for stack in scenario.stacks]
    return max(peaks) if peaks else 0


def _sip_rejected(scenario: "ManetScenario") -> int:
    return sum(stack.proxy.rejected_overload for stack in scenario.stacks)


def _gateway_leases(scenario: "ManetScenario") -> int:
    total = 0
    for stack in scenario.stacks:
        gateway = stack.gateway
        if gateway is not None and gateway.tunnel_server is not None:
            total += gateway.tunnel_server.active_lease_count
    return total


def _slp_cache_sum(scenario: "ManetScenario") -> int:
    return sum(stack.manet_slp.cache_size for stack in scenario.stacks)


def _slp_cache_max(scenario: "ManetScenario") -> int:
    sizes = [stack.manet_slp.cache_size for stack in scenario.stacks]
    return max(sizes) if sizes else 0


def _slp_local_sum(scenario: "ManetScenario") -> int:
    return sum(stack.manet_slp.local_service_count for stack in scenario.stacks)


def _routes_sum(scenario: "ManetScenario") -> int:
    return sum(stack.routing.route_count for stack in scenario.stacks)


def _routes_max(scenario: "ManetScenario") -> int:
    counts = [stack.routing.route_count for stack in scenario.stacks]
    return max(counts) if counts else 0


def _aodv_pending(scenario: "ManetScenario") -> int:
    return sum(
        stack.routing.pending_discovery_count
        for stack in scenario.stacks
        if hasattr(stack.routing, "pending_discovery_count")
    )


def _olsr_topology(scenario: "ManetScenario") -> int:
    sizes = [
        stack.routing.topology_size
        for stack in scenario.stacks
        if hasattr(stack.routing, "topology_size")
    ]
    return max(sizes) if sizes else 0


def _rtp_sessions(scenario: "ManetScenario") -> int:
    return sum(len(phone.media_sessions) for phone in scenario.phones.values())


def _rtp_backlog_sum(scenario: "ManetScenario") -> int:
    now = scenario.sim.now
    total = 0
    for phone in scenario.phones.values():
        for session in phone.media_sessions:
            total += session.jitter_buffer.backlog_at(now)
    return total


def _rtp_backlog_max(scenario: "ManetScenario") -> int:
    now = scenario.sim.now
    worst = 0
    for phone in scenario.phones.values():
        for session in phone.media_sessions:
            backlog = session.jitter_buffer.backlog_at(now)
            if backlog > worst:
                worst = backlog
    return worst


def _rtp_playout_delay_max(scenario: "ManetScenario") -> float:
    worst = 0.0
    for phone in scenario.phones.values():
        for session in phone.media_sessions:
            delay = session.jitter_buffer.playout_delay
            if delay > worst:
                worst = delay
    return worst


def _handover_active(scenario: "ManetScenario") -> int:
    total = 0
    for stack in scenario.stacks:
        if stack.handover is not None:
            total += stack.handover.active_attempts
    return total


def _handover_media_gap_max(scenario: "ManetScenario") -> float:
    worst = 0.0
    for stack in scenario.stacks:
        if stack.handover is not None:
            for gap in stack.handover.media_gaps:
                if gap > worst:
                    worst = gap
    return worst


def _sim_pending(scenario: "ManetScenario") -> int:
    return scenario.sim.pending_events


def _sim_processed(scenario: "ManetScenario") -> int:
    return scenario.sim.events_processed


def _stats_counter(scenario: "ManetScenario", name: str) -> int:
    return scenario.stats.count(name)


def _depth_sampler(scenario: "ManetScenario", registry: MetricsRegistry, t: float) -> None:
    """Per-scrape population histograms: TX-queue depths and route counts."""
    depth_hist = registry.histogram("txqueue.depth.dist", bounds=DEPTH_BUCKETS)
    for node in scenario.nodes:
        if node.tx_queue is not None:
            depth_hist.observe(node.tx_queue.depth)
    route_hist = registry.histogram("routing.routes.dist", bounds=ROUTE_BUCKETS)
    for stack in scenario.stacks:
        route_hist.observe(stack.routing.route_count)


def install_scenario_instruments(
    scenario: "ManetScenario", registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Register the standard gauge/histogram set over a built scenario.

    Uses the scraper's registry when one is attached (the common path);
    passing ``registry`` explicitly supports standalone collection.
    """
    if registry is None:
        scraper = scenario.sim.metrics
        registry = scraper.registry if scraper is not None else MetricsRegistry()
    gauge = registry.gauge
    gauge("txqueue.depth.sum", fn=partial(_txqueue_depth_sum, scenario),
          help="Frames waiting across all TX queues")
    gauge("txqueue.depth.max", fn=partial(_txqueue_depth_max, scenario),
          help="Deepest single TX queue right now")
    gauge("txqueue.depth.peak", fn=partial(_txqueue_peak_depth, scenario),
          help="High-watermark: deepest any TX queue has ever been")
    gauge("txqueue.dropped", fn=partial(_txqueue_dropped, scenario),
          help="Frames shed by TX queue policies so far")
    gauge("sip.admission.inflight", fn=partial(_sip_inflight_sum, scenario),
          help="Dialog-initiating forwards awaiting a final response")
    gauge("sip.admission.inflight.peak", fn=partial(_sip_inflight_peak, scenario),
          help="Highest single-proxy inflight ever observed")
    gauge("sip.admission.rejected", fn=partial(_sip_rejected, scenario),
          help="Requests shed with 503 by admission control so far")
    gauge("gateway.leases.active", fn=partial(_gateway_leases, scenario),
          help="Active tunnel leases across all gateways")
    gauge("slp.cache.size.sum", fn=partial(_slp_cache_sum, scenario),
          help="Remote SLP entries cached across all nodes")
    gauge("slp.cache.size.max", fn=partial(_slp_cache_max, scenario),
          help="Largest single-node SLP cache")
    gauge("slp.local.services", fn=partial(_slp_local_sum, scenario),
          help="Locally registered SLP services across all nodes")
    gauge("routing.routes.sum", fn=partial(_routes_sum, scenario),
          help="Route-table entries across all nodes")
    gauge("routing.routes.max", fn=partial(_routes_max, scenario),
          help="Largest single route table")
    if scenario.config.routing == "aodv":
        gauge("routing.aodv.pending", fn=partial(_aodv_pending, scenario),
              help="AODV route discoveries in flight")
    else:
        gauge("routing.olsr.topology", fn=partial(_olsr_topology, scenario),
              help="Largest OLSR topology set (TC origins known)")
    gauge("rtp.sessions", fn=partial(_rtp_sessions, scenario),
          help="Open RTP sessions across all phones")
    gauge("rtp.jitter.backlog.sum", fn=partial(_rtp_backlog_sum, scenario),
          help="Frames buffered awaiting playout, all jitter buffers")
    gauge("rtp.jitter.backlog.max", fn=partial(_rtp_backlog_max, scenario),
          help="Deepest single jitter buffer")
    gauge("rtp.playout_delay.max", fn=partial(_rtp_playout_delay_max, scenario),
          help="Largest playout delay any live jitter buffer targets (s)")
    gauge("rtp.recovered", fn=partial(_stats_counter, scenario, "rtp.recovered"),
          help="Frames rebuilt from RFC 2198 redundancy (Stats mirror)")
    gauge("handover.active", fn=partial(_handover_active, scenario),
          help="Mid-call migrations currently in progress")
    gauge("handover.media_gap.max", fn=partial(_handover_media_gap_max, scenario),
          help="Longest measured media gap across completed handovers (s)")
    gauge("handover.attempted", fn=partial(_stats_counter, scenario, "handover.attempted"),
          help="Handover attempts started (Stats mirror)")
    gauge("handover.succeeded", fn=partial(_stats_counter, scenario, "handover.succeeded"),
          help="Handovers that re-anchored the session (Stats mirror)")
    gauge("handover.abandoned", fn=partial(_stats_counter, scenario, "handover.abandoned"),
          help="Handovers abandoned at the give-up deadline (Stats mirror)")
    gauge("sim.pending_events", fn=partial(_sim_pending, scenario),
          help="Live scheduled events in the kernel")
    gauge("sim.events_processed", fn=partial(_sim_processed, scenario),
          help="Events fired since the start of the run")
    gauge("ip.no_route", fn=partial(_stats_counter, scenario, "ip.no_route"),
          help="Packets dropped for lack of a route (Stats mirror)")
    gauge("sip.invites", fn=partial(_stats_counter, scenario, "sip.invites"),
          help="INVITE requests seen (Stats mirror)")
    registry.histogram("txqueue.depth.dist", bounds=DEPTH_BUCKETS,
                       help="Per-scrape distribution of TX-queue depths")
    registry.histogram("routing.routes.dist", bounds=ROUTE_BUCKETS,
                       help="Per-scrape distribution of route-table sizes")
    registry.add_sampler(partial(_depth_sampler, scenario, registry))
    return registry
