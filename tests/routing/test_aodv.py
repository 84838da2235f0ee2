"""Unit/behavioural tests for the AODV daemon."""

import pytest

from repro.netsim import (
    BROADCAST,
    Node,
    Simulator,
    Stats,
    WirelessMedium,
    manet_ip,
    place_chain,
)
from repro.routing import Aodv


def build_aodv_chain(n, seed=1, spacing=100.0, tx_range=150.0, use_hello=False):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=tx_range)
    nodes, daemons = [], []
    for index in range(n):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        daemon = Aodv(node, use_hello=use_hello)
        daemon.start()
        nodes.append(node)
        daemons.append(daemon)
    place_chain(nodes, spacing)
    return sim, stats, nodes, daemons


class TestRouteDiscovery:
    def test_multihop_delivery_and_hop_counts(self):
        sim, stats, nodes, daemons = build_aodv_chain(5)
        got = []
        nodes[4].bind(9000, lambda data, src, sport: got.append(data))
        nodes[0].send_udp(nodes[4].ip, 9000, 9000, b"payload")
        sim.run(5.0)
        assert got == [b"payload"]
        assert daemons[0].hop_count_to(nodes[4].ip) == 4
        # Forward route at the destination too (reverse path).
        assert daemons[4].hop_count_to(nodes[0].ip) == 4

    def test_intermediate_nodes_learn_routes(self):
        sim, stats, nodes, daemons = build_aodv_chain(5)
        nodes[4].bind(9000, lambda *args: None)
        nodes[0].send_udp(nodes[4].ip, 9000, 9000, b"x")
        sim.run(5.0)
        assert daemons[2].hop_count_to(nodes[4].ip) == 2
        assert daemons[2].hop_count_to(nodes[0].ip) == 2

    def test_packets_buffered_during_discovery(self):
        sim, stats, nodes, daemons = build_aodv_chain(4)
        got = []
        nodes[3].bind(9000, lambda data, src, sport: got.append(data))
        for i in range(5):
            nodes[0].send_udp(nodes[3].ip, 9000, 9000, f"pkt{i}".encode())
        sim.run(5.0)
        # All buffered packets flush once the route is found (UDP may reorder).
        assert sorted(got) == [f"pkt{i}".encode() for i in range(5)]

    def test_discovery_failure_for_unreachable_destination(self):
        sim, stats, nodes, daemons = build_aodv_chain(3)
        nodes[0].send_udp("192.168.0.200", 9000, 9000, b"void")
        sim.run(30.0)
        assert stats.count("aodv.discovery_failed") == 1
        assert stats.count("ip.no_route") >= 1

    def test_discovery_retries_before_giving_up(self):
        sim, stats, nodes, daemons = build_aodv_chain(1)  # no neighbors at all
        nodes[0].send_udp("192.168.0.200", 9000, 9000, b"void")
        sim.run(30.0)
        assert stats.count("aodv.rreq_originated") == 1 + Aodv.RREQ_RETRIES

    def test_proactive_discover(self):
        sim, stats, nodes, daemons = build_aodv_chain(3)
        daemons[0].discover(nodes[2].ip)
        sim.run(3.0)
        assert daemons[0].hop_count_to(nodes[2].ip) == 2

    def test_second_send_uses_cached_route(self):
        sim, stats, nodes, daemons = build_aodv_chain(3)
        nodes[2].bind(9000, lambda *args: None)
        nodes[0].send_udp(nodes[2].ip, 9000, 9000, b"one")
        sim.run(3.0)
        rreqs = stats.count("aodv.rreq_originated")
        nodes[0].send_udp(nodes[2].ip, 9000, 9000, b"two")
        sim.run(4.0)
        assert stats.count("aodv.rreq_originated") == rreqs


class TestMalformedDatagrams:
    def test_malformed_datagram_is_dropped_and_counted(self):
        sim, stats, nodes, daemons = build_aodv_chain(3)
        nodes[0].send_udp(BROADCAST, Aodv.port, Aodv.port, b"\x01\x00")
        sim.run(sim.now + 1.0)
        assert stats.count("aodv.malformed") == 1  # only node 1 is in range
        got = []
        nodes[2].bind(9000, lambda data, src, sport: got.append(data))
        nodes[0].send_udp(nodes[2].ip, 9000, 9000, b"after")
        sim.run(sim.now + 3.0)
        assert got == [b"after"]


class TestRouteMaintenance:
    def test_link_failure_triggers_rerr_and_invalidates(self):
        sim, stats, nodes, daemons = build_aodv_chain(4)
        nodes[3].bind(9000, lambda *args: None)
        nodes[0].send_udp(nodes[3].ip, 9000, 9000, b"x")
        sim.run(3.0)
        assert daemons[0].route_to(nodes[3].ip) is not None
        # Node 2 walks out of range: the 1->2 link breaks.
        nodes[2].position = (5000.0, 5000.0)
        nodes[3].position = (5100.0, 5000.0)
        nodes[0].send_udp(nodes[3].ip, 9000, 9000, b"y")
        sim.run(8.0)
        assert stats.count("aodv.rerr_originated") >= 1

    def test_route_expiry(self):
        sim, stats, nodes, daemons = build_aodv_chain(3)
        nodes[2].bind(9000, lambda *args: None)
        nodes[0].send_udp(nodes[2].ip, 9000, 9000, b"x")
        sim.run(3.0)
        assert daemons[0].route_to(nodes[2].ip) is not None
        sim.run(3.0 + Aodv.ACTIVE_ROUTE_TIMEOUT * 3)
        assert daemons[0].route_to(nodes[2].ip) is None


class TestHello:
    def test_hello_builds_neighbor_routes(self):
        sim, stats, nodes, daemons = build_aodv_chain(2, use_hello=True)
        sim.run(3.0)
        assert daemons[0].hop_count_to(nodes[1].ip) == 1
        assert daemons[1].hop_count_to(nodes[0].ip) == 1

    def test_hello_disabled_means_no_periodic_traffic(self):
        sim, stats, nodes, daemons = build_aodv_chain(2, use_hello=False)
        sim.run(5.0)
        assert stats.traffic_packets("aodv") == 0


class TestSequenceNumbers:
    def test_fresher_route_replaces_stale(self):
        sim, stats, nodes, daemons = build_aodv_chain(3)
        daemon = daemons[0]
        daemon._update_route("192.168.0.50", nodes[1].ip, 4, seq_no=5, lifetime=100.0)
        daemon._update_route("192.168.0.50", nodes[1].ip, 6, seq_no=9, lifetime=100.0)
        assert daemon.route_to("192.168.0.50").seq_no == 9
        assert daemon.route_to("192.168.0.50").hop_count == 6

    def test_same_seq_shorter_wins(self):
        sim, stats, nodes, daemons = build_aodv_chain(3)
        daemon = daemons[0]
        daemon._update_route("192.168.0.50", nodes[1].ip, 4, seq_no=5, lifetime=100.0)
        daemon._update_route("192.168.0.50", nodes[1].ip, 2, seq_no=5, lifetime=100.0)
        assert daemon.route_to("192.168.0.50").hop_count == 2

    def test_stale_update_only_extends_lifetime(self):
        sim, stats, nodes, daemons = build_aodv_chain(3)
        daemon = daemons[0]
        daemon._update_route("192.168.0.50", nodes[1].ip, 2, seq_no=9, lifetime=10.0)
        daemon._update_route("192.168.0.50", nodes[1].ip, 1, seq_no=5, lifetime=100.0)
        route = daemon.route_to("192.168.0.50")
        assert route.seq_no == 9
        assert route.hop_count == 2

    def test_plugin_rreq_id_space_disjoint(self):
        sim, stats, nodes, daemons = build_aodv_chain(2)
        daemon = daemons[0]
        assert daemon.next_rreq_id() >= 1 << 24
        assert daemon.next_rreq_id() > 1 << 24


class TestNetDiameter:
    def test_default_traversal_time_matches_rfc3561(self):
        sim, stats, nodes, daemons = build_aodv_chain(1)
        # NET_TRAVERSAL_TIME = 2 * NODE_TRAVERSAL_TIME * NET_DIAMETER
        assert daemons[0].net_traversal_time == pytest.approx(
            2 * Aodv.NODE_TRAVERSAL_TIME * Aodv.NET_DIAMETER
        )

    def test_override_shrinks_the_rreq_retry_horizon(self):
        sim = Simulator(seed=1)
        medium = WirelessMedium(sim, stats=Stats(), tx_range=150.0)
        node = Node(sim, 0, manet_ip(0), stats=medium.stats)
        node.join_medium(medium)
        daemon = Aodv(node, net_diameter=2)
        assert daemon.net_traversal_time == pytest.approx(
            2 * Aodv.NODE_TRAVERSAL_TIME * 2
        )

    def test_small_diameter_retries_sooner(self):
        """With the RFC horizon a lone node waits 2.8 s before each retry;
        with diameter 2 all retries fit well inside a second."""
        sim = Simulator(seed=1)
        stats = Stats()
        medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
        node = Node(sim, 0, manet_ip(0), stats=stats)
        node.join_medium(medium)
        daemon = Aodv(node, net_diameter=2)
        daemon.start()
        node.send_udp("192.168.0.200", 9000, 9000, b"void")
        sim.run(1.0)
        assert stats.count("aodv.rreq_originated") == 1 + Aodv.RREQ_RETRIES
