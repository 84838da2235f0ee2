"""Behavioural tests for Gateway Provider and Connection Provider."""

import pytest

from repro.core import (
    ConnectionProvider,
    GatewayProvider,
    ManetSlp,
    make_handler,
)
from repro.core.tunnel import TunnelServer
from repro.errors import GatewayError
from repro.netsim import (
    InternetCloud,
    Node,
    Simulator,
    Stats,
    WirelessMedium,
    make_internet_host,
    manet_ip,
    place_chain,
)
from repro.routing import Aodv, Olsr
from repro.slp.service import SERVICE_GATEWAY


def build(n=3, seed=41, gateway_index=None, routing=Aodv):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
    cloud = InternetCloud(sim, stats=stats)
    nodes, slps = [], []
    for index in range(n):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        daemon = routing(node)
        daemon.start()
        slps.append(ManetSlp(node, make_handler(daemon)).start())
        nodes.append(node)
    place_chain(nodes, 100.0)
    gateway = None
    if gateway_index is not None:
        cloud.attach(nodes[gateway_index])
        gateway = GatewayProvider(nodes[gateway_index], cloud, slps[gateway_index]).start()
    return sim, stats, cloud, nodes, slps, gateway


class TestGatewayProvider:
    def test_requires_wired_attachment(self):
        sim, stats, cloud, nodes, slps, _ = build(gateway_index=None)
        provider = GatewayProvider(nodes[0], cloud, slps[0])
        with pytest.raises(GatewayError):
            provider.start()

    def test_publishes_gateway_service(self):
        sim, stats, cloud, nodes, slps, gateway = build(gateway_index=2)
        local = slps[2].local_services()
        assert any(e.url.service_type == SERVICE_GATEWAY for e in local)
        assert gateway.running

    def test_stop_withdraws_service(self):
        sim, stats, cloud, nodes, slps, gateway = build(gateway_index=2)
        gateway.stop()
        assert not gateway.running
        assert not any(
            e.url.service_type == SERVICE_GATEWAY for e in slps[2].local_services()
        )

    def test_start_twice_is_idempotent(self):
        sim, stats, cloud, nodes, slps, gateway = build(gateway_index=2)
        gateway.start()
        assert len(slps[2].local_services()) == 1


class TestConnectionProvider:
    def test_discovers_gateway_and_connects(self):
        sim, stats, cloud, nodes, slps, gateway = build(gateway_index=2)
        connected = []
        provider = ConnectionProvider(nodes[0], slps[0])
        provider.on_connected = connected.append
        provider.start()
        sim.run(20.0)
        assert provider.connected
        assert connected and connected[0] == provider.tunnel_ip
        assert nodes[0].has_default_route()

    def test_no_gateway_means_no_connection(self):
        sim, stats, cloud, nodes, slps, _ = build(gateway_index=None)
        provider = ConnectionProvider(nodes[0], slps[0]).start()
        sim.run(20.0)
        assert not provider.connected

    def test_gateway_node_itself_does_not_tunnel(self):
        sim, stats, cloud, nodes, slps, gateway = build(gateway_index=2)
        provider = ConnectionProvider(nodes[2], slps[2]).start()
        sim.run(20.0)
        assert not provider.connected  # it already has wired connectivity

    def test_dead_gateway_detected_and_reconnect_possible(self):
        sim, stats, cloud, nodes, slps, gateway = build(gateway_index=2)
        disconnects = []
        provider = ConnectionProvider(nodes[0], slps[0])
        provider.on_disconnected = lambda: disconnects.append(sim.now)
        provider.start()
        sim.run(15.0)
        assert provider.connected
        nodes[2].up = False  # gateway crashes
        sim.run(15.0 + 3 * 25.0)
        assert not provider.connected
        assert disconnects

    def test_stop_tears_down_tunnel(self):
        sim, stats, cloud, nodes, slps, gateway = build(gateway_index=2)
        provider = ConnectionProvider(nodes[0], slps[0]).start()
        sim.run(15.0)
        assert provider.connected
        provider.stop()
        sim.run(17.0)
        assert not provider.connected
        assert "tunnel" not in nodes[0].default_route_names()

    def test_failed_gateway_cooled_down_prefers_alternative(self):
        """Regression (ISSUE 4): a gateway that failed on us must not be
        re-selected over a working alternative while it cools down.

        Pre-fix the provider always picked min-metric, so it hammered the
        broken near gateway forever and never reached the far one.
        """
        sim, stats, cloud, nodes, slps, _ = build(n=4, gateway_index=None)
        cloud.attach(nodes[1])
        cloud.attach(nodes[3])
        near = GatewayProvider(nodes[1], cloud, slps[1]).start()
        GatewayProvider(nodes[3], cloud, slps[3]).start()
        nodes[0].router.discover(nodes[1].ip)
        nodes[0].router.discover(nodes[3].ip)
        sim.run(3.0)
        # The near gateway keeps advertising but its tunnel server is gone:
        # lease requests to it black-hole.
        near.tunnel_server.close()
        provider = ConnectionProvider(nodes[0], slps[0]).start()
        sim.run(40.0)
        assert provider.connected
        assert provider.tunnel.gateway_ip == nodes[3].ip
        assert stats.count("connection.gateway_failures") >= 1

    def test_consecutive_failures_back_off_lookups(self):
        """Regression (ISSUE 4): with no working gateway, retry attempts
        must back off exponentially instead of polling at full rate."""
        sim, stats, cloud, nodes, slps, gateway = build(gateway_index=2)
        gateway.tunnel_server.close()  # advert up, lease requests black-hole
        lookups = []
        original = slps[0].find_services

        def counting(service_type, callback=None, **kwargs):
            lookups.append(sim.now)
            return original(service_type, callback=callback, **kwargs)

        slps[0].find_services = counting
        provider = ConnectionProvider(nodes[0], slps[0]).start()
        sim.run(120.0)
        assert not provider.connected
        # Backoff doubles from POLL_INTERVAL up to MAX_BACKOFF: 4 attempts
        # fit in 120s. Pre-fix, one every ~5s (about 24).
        assert len(lookups) <= 12

    def test_cooldown_is_preference_not_blacklist(self):
        # The only gateway fails, enters cooldown, then comes back: the
        # provider must still reconnect to it (fallback to cooled-down
        # candidates when no alternative exists).
        sim, stats, cloud, nodes, slps, gateway = build(gateway_index=2)
        gateway.tunnel_server.close()
        provider = ConnectionProvider(nodes[0], slps[0]).start()
        sim.run(10.0)
        assert not provider.connected
        assert stats.count("connection.gateway_failures") >= 1
        gateway.tunnel_server = TunnelServer(nodes[2], cloud)
        sim.run(sim.now + 20.0)  # well inside the 30s cooldown window
        assert provider.connected
        assert provider.tunnel.gateway_ip == nodes[2].ip

    def test_gateway_restart_nack_reconnects_promptly(self):
        """Regression (ISSUE 4): a restarted gateway NACKs frames for the
        lost lease, and the client re-establishes within seconds instead
        of waiting out the ~45s liveness deadline."""
        sim, stats, cloud, nodes, slps, gateway = build(gateway_index=2)
        provider = ConnectionProvider(nodes[0], slps[0]).start()
        sim.run(15.0)
        assert provider.connected
        # Power-cycle the gateway's tunnel endpoint: lease table wiped.
        gateway.tunnel_server.close()
        gateway.tunnel_server = TunnelServer(nodes[2], cloud)
        host = make_internet_host(sim, cloud, "remote.example")
        nodes[0].send_udp(host.wired_ip, 6000, 7000, b"probe")
        sim.run(sim.now + 10.0)
        assert stats.count("tunnel.nacks_received") >= 1
        assert stats.count("connection.established") == 2
        assert provider.connected

    def test_prefers_closer_gateway(self):
        sim, stats, cloud, nodes, slps, _ = build(n=4, gateway_index=None)
        # Two gateways: node 1 (1 hop from node 0) and node 3 (3 hops).
        cloud.attach(nodes[1])
        cloud.attach(nodes[3])
        GatewayProvider(nodes[1], cloud, slps[1]).start()
        GatewayProvider(nodes[3], cloud, slps[3]).start()
        # Prime a route toward both so hop counts are known.
        nodes[0].router.discover(nodes[1].ip)
        nodes[0].router.discover(nodes[3].ip)
        sim.run(3.0)
        provider = ConnectionProvider(nodes[0], slps[0]).start()
        sim.run(20.0)
        assert provider.connected
        assert provider.tunnel.gateway_ip == nodes[1].ip


class TestGatewayLookupRule:
    """Under OLSR every advert floods to every node's cache, so a network
    lookup that finds nothing backs off while each poll still reads the
    cache; a lookup sent before the node's own messages flood past its
    neighbours is no miss. Under AODV each poll's lookup RREQ also carries
    the node's queued adverts, so every poll still looks up."""

    @pytest.mark.parametrize("seed", [41, 7, 3])
    def test_olsr_empty_lookups_back_off(self, seed):
        sim, stats, cloud, nodes, slps, _ = build(seed=seed, routing=Olsr)
        ConnectionProvider(nodes[0], slps[0]).start()
        sim.run(60.0)
        # One lookup per poll would be 12-13; the backoff doubles from
        # POLL_INTERVAL after each miss.
        assert stats.count("manetslp.queries_sent") <= 5

    @pytest.mark.parametrize("seed", [41, 7, 3])
    def test_olsr_gateway_present_from_start_is_attached_promptly(self, seed):
        # The gateway's startup adverts reach only its neighbour, so node 0,
        # two hops away, finds it by a network lookup: one sent before the
        # MPRs settle finds nothing, and must not hold the next one back.
        # Attached at 4.8-5.8 s; counting that first miss took 9.9-10.6 s.
        sim, stats, cloud, nodes, slps, _ = build(
            seed=seed, gateway_index=2, routing=Olsr
        )
        provider = ConnectionProvider(nodes[0], slps[0]).start()
        connected = []
        provider.on_connected = lambda tunnel_ip: connected.append(sim.now)
        sim.run(30.0)
        assert connected and connected[0] <= 7.0

    @pytest.mark.parametrize("seed", [41, 7, 3])
    def test_olsr_gateway_advert_is_attached_during_backoff(self, seed):
        # The next poll's cache read attaches it: 1.4-4.0 s after the start.
        # A lookup every poll, one of which may be in flight when the advert
        # lands, took 0.2-1.6 s; a backoff that skipped the cache read, 13-20 s.
        sim, stats, cloud, nodes, slps, _ = build(seed=seed, routing=Olsr)
        provider = ConnectionProvider(nodes[0], slps[0]).start()
        connected = []
        provider.on_connected = lambda tunnel_ip: connected.append(sim.now)
        sim.run(40.0)
        assert not provider.connected
        cloud.attach(nodes[2])
        GatewayProvider(nodes[2], cloud, slps[2]).start()
        sim.run(60.0)
        assert provider.connected
        assert connected[0] - 40.0 <= 7.0

    def test_aodv_looks_up_every_poll(self):
        sim, stats, cloud, nodes, slps, _ = build()
        ConnectionProvider(nodes[0], slps[0]).start()
        sim.run(60.0)
        assert stats.count("manetslp.queries_sent") == 12
