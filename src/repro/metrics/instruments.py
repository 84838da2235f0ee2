"""The gauge table a metrics-on :class:`~repro.scenarios.ManetScenario` scrapes.

``GAUGES`` lists each gauge's name and reader — the dynamics the paper's
questions need: queue depths climbing toward the overload knee, SLP
cache churn, route-table growth, lease occupancy — and ``HISTOGRAMS``
the two per-scrape population histograms with their bucket bounds.
:func:`scenario_reader` binds the table to one scenario; the scraper
calls the result once per scrape. Every reader only *reads* live
scenario state, so between scrapes the table costs nothing and the
simulation cannot tell it exists. A counter the run already keeps in
``Stats`` is mirrored by name (:func:`_stat`), never counted twice.

Readers are module-level functions of the scenario, and they iterate
``scenario.nodes`` / ``scenario.stacks`` / ``scenario.phones`` at call
time instead of capturing the component objects, so they survive
:meth:`ManetScenario.restart_node`, which replaces those objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.metrics.registry import DEPTH_BUCKETS, Histogram
from repro.metrics.scraper import Reader, Reading

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenarios import ManetScenario

#: Bucket bounds for route-table sizes (they grow past queue depths).
ROUTE_BUCKETS = (0.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: A gauge reader: one number from the scenario's live state.
GaugeReader = Callable[["ManetScenario"], float]


# -- populations (each feeds a histogram and its sum / max gauges) ----------

def _txqueue_depths(scenario: "ManetScenario") -> list[int]:
    return [node.tx_queue.depth for node in scenario.nodes if node.tx_queue is not None]


def _route_counts(scenario: "ManetScenario") -> list[int]:
    return [stack.routing.route_count for stack in scenario.stacks]


def _slp_cache_sizes(scenario: "ManetScenario") -> list[int]:
    return [stack.manet_slp.cache_size for stack in scenario.stacks]


# -- gauge readers ------------------------------------------------------------

def _stat(counter: str) -> GaugeReader:
    """A gauge that mirrors the ``Stats`` counter ``counter``."""

    def read(scenario: "ManetScenario") -> int:
        return scenario.stats.count(counter)

    return read


def _txqueue_depth_sum(scenario: "ManetScenario") -> int:
    return sum(_txqueue_depths(scenario))


def _txqueue_depth_max(scenario: "ManetScenario") -> int:
    return max(_txqueue_depths(scenario), default=0)


def _txqueue_peak_depth(scenario: "ManetScenario") -> int:
    peaks = [
        node.tx_queue.peak_depth for node in scenario.nodes if node.tx_queue is not None
    ]
    return max(peaks, default=0)


def _sip_inflight_sum(scenario: "ManetScenario") -> int:
    return sum(stack.proxy.inflight_forwards for stack in scenario.stacks)


def _sip_inflight_peak(scenario: "ManetScenario") -> int:
    return max((stack.proxy.inflight_peak for stack in scenario.stacks), default=0)


def _gateway_leases(scenario: "ManetScenario") -> int:
    total = 0
    for stack in scenario.stacks:
        gateway = stack.gateway
        if gateway is not None and gateway.tunnel_server is not None:
            total += gateway.tunnel_server.active_lease_count
    return total


def _slp_cache_sum(scenario: "ManetScenario") -> int:
    return sum(_slp_cache_sizes(scenario))


def _slp_cache_max(scenario: "ManetScenario") -> int:
    return max(_slp_cache_sizes(scenario), default=0)


def _slp_local_sum(scenario: "ManetScenario") -> int:
    return sum(stack.manet_slp.local_service_count for stack in scenario.stacks)


def _routes_sum(scenario: "ManetScenario") -> int:
    return sum(_route_counts(scenario))


def _routes_max(scenario: "ManetScenario") -> int:
    return max(_route_counts(scenario), default=0)


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
    return max(sizes, default=0)


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


#: Every scenario's gauges by name, in export order, with their readers.
GAUGES: tuple[tuple[str, GaugeReader], ...] = (
    ("gateway.leases.active", _gateway_leases),
    ("handover.abandoned", _stat("handover.abandoned")),
    ("handover.active", _handover_active),
    ("handover.attempted", _stat("handover.attempted")),
    ("handover.media_gap.max", _handover_media_gap_max),  # seconds
    ("handover.succeeded", _stat("handover.succeeded")),
    ("ip.no_route", _stat("ip.no_route")),
    ("routing.routes.max", _routes_max),
    ("routing.routes.sum", _routes_sum),
    ("rtp.jitter.backlog.max", _rtp_backlog_max),  # frames awaiting playout
    ("rtp.jitter.backlog.sum", _rtp_backlog_sum),
    ("rtp.playout_delay.max", _rtp_playout_delay_max),  # seconds
    ("rtp.recovered", _stat("rtp.recovered")),  # rebuilt from RFC 2198 redundancy
    ("rtp.sessions", _rtp_sessions),
    ("sim.events_processed", _sim_processed),
    ("sim.pending_events", _sim_pending),
    ("sip.admission.inflight", _sip_inflight_sum),  # forwards awaiting a final response
    ("sip.admission.inflight.peak", _sip_inflight_peak),
    ("sip.admission.rejected", _stat("sip.admission_rejected")),  # 503 sheds
    ("slp.cache.size.max", _slp_cache_max),  # remote entries, not local services
    ("slp.cache.size.sum", _slp_cache_sum),
    ("slp.local.services", _slp_local_sum),
    ("txqueue.depth.max", _txqueue_depth_max),
    ("txqueue.depth.peak", _txqueue_peak_depth),  # high-watermark since the start
    ("txqueue.depth.sum", _txqueue_depth_sum),
    ("txqueue.dropped", _stat("txqueue.drops")),
)

#: The one routing-specific gauge of an AODV scenario and of an OLSR one.
AODV_GAUGE = ("routing.aodv.pending", _aodv_pending)  # discoveries in flight
OLSR_GAUGE = ("routing.olsr.topology", _olsr_topology)  # largest TC origin set

#: Per-scrape population histograms: name, bucket bounds and population.
HISTOGRAMS = (
    ("txqueue.depth.dist", DEPTH_BUCKETS, _txqueue_depths),
    ("routing.routes.dist", ROUTE_BUCKETS, _route_counts),
)


def scenario_reader(scenario: "ManetScenario") -> Reader:
    """The scrape reader of ``scenario``: the gauge table bound to it.

    The reader owns the histograms' running totals: each call observes
    every population once, then reads every gauge and histogram.
    """
    routing_gauge = AODV_GAUGE if scenario.config.routing == "aodv" else OLSR_GAUGE
    gauges = GAUGES + (routing_gauge,)
    histograms = [
        (Histogram(name, bounds), population) for name, bounds, population in HISTOGRAMS
    ]

    def read() -> Reading:
        for histogram, population in histograms:
            for value in population(scenario):
                histogram.observe(value)
        return (
            {name: reader(scenario) for name, reader in gauges},
            {histogram.name: histogram.read() for histogram, _ in histograms},
        )

    return read
