"""Behavioural tests for MANET SLP over both routing handler plugins."""

import itertools

import pytest

from repro.core import ManetSlp, ManetSlpConfig, make_handler
from repro.netsim import Node, Simulator, Stats, WirelessMedium, manet_ip, place_chain
from repro.routing import Aodv, Olsr
from repro.slp.service import SERVICE_SIP_CONTACT


def build(protocol, n=4, seed=21, config=None):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
    nodes, slps = [], []
    for index in range(n):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        daemon = (Aodv if protocol == "aodv" else Olsr)(node)
        daemon.start()
        slps.append(ManetSlp(node, make_handler(daemon), config).start())
        nodes.append(node)
    place_chain(nodes, 100.0)
    return sim, stats, nodes, slps


def sip_url(node):
    return f"service:siphoc-sip://{node.ip}:5060"


class TestLocalOperations:
    def test_register_and_cached_lookup(self):
        sim, stats, nodes, slps = build("aodv", n=1)
        slps[0].register(sip_url(nodes[0]), {"user": "sip:a@h"})
        hits = slps[0].lookup_cached(SERVICE_SIP_CONTACT, "(user=sip:a@h)")
        assert len(hits) == 1

    def test_find_services_local_hit_is_async(self):
        sim, stats, nodes, slps = build("aodv", n=1)
        slps[0].register(sip_url(nodes[0]), {"user": "sip:a@h"})
        results = []
        slps[0].find_services(SERVICE_SIP_CONTACT, "(user=sip:a@h)", callback=results.append)
        assert results == []  # not synchronous
        sim.run(0.1)
        assert len(results[0]) == 1

    def test_deregister_removes_local(self):
        sim, stats, nodes, slps = build("aodv", n=1)
        slps[0].register(sip_url(nodes[0]), {"user": "sip:a@h"})
        slps[0].deregister(sip_url(nodes[0]))
        assert slps[0].local_services() == []

    def test_expired_local_entry_not_served(self):
        sim, stats, nodes, slps = build("aodv", n=1, config=ManetSlpConfig(refresh_interval=0))
        slps[0].register(sip_url(nodes[0]), {"user": "sip:a@h"}, lifetime=2.0)
        sim.run(3.0)
        assert slps[0].lookup_cached(SERVICE_SIP_CONTACT) == []

    def test_state_dump_mentions_plugin_and_entries(self):
        sim, stats, nodes, slps = build("aodv", n=1)
        slps[0].register(sip_url(nodes[0]), {"user": "sip:alice@voicehoc.ch"})
        dump = slps[0].state_dump()
        assert "aodv" in dump
        assert "sip:alice@voicehoc.ch" in dump


class TestAodvLookups:
    def test_on_demand_query_resolves_across_chain(self):
        sim, stats, nodes, slps = build("aodv")
        slps[3].register(sip_url(nodes[3]), {"user": "sip:bob@h"})
        sim.run(0.2)
        results = []
        slps[0].find_services(SERVICE_SIP_CONTACT, "(user=sip:bob@h)", callback=results.append)
        sim.run(5.0)
        assert results and results[0][0].url.host == nodes[3].ip

    def test_lookup_installs_route_to_responder(self):
        sim, stats, nodes, slps = build("aodv")
        slps[3].register(sip_url(nodes[3]), {"user": "sip:bob@h"})
        sim.run(0.2)
        slps[0].find_services(SERVICE_SIP_CONTACT, "(user=sip:bob@h)", callback=lambda e: None)
        sim.run(5.0)
        route = nodes[0].router.route_to(nodes[3].ip)
        assert route is not None and route.hop_count == 3

    def test_unresolvable_lookup_times_out_empty(self):
        sim, stats, nodes, slps = build("aodv")
        results = []
        slps[0].find_services(SERVICE_SIP_CONTACT, "(user=sip:ghost@h)", callback=results.append)
        sim.run(10.0)
        assert results == [[]]
        assert stats.count("manetslp.lookups_failed") == 1

    def test_queries_ride_routing_packets_only(self):
        """No dedicated discovery traffic: everything is on port 654."""
        sim, stats, nodes, slps = build("aodv")
        slps[3].register(sip_url(nodes[3]), {"user": "sip:bob@h"})
        sim.run(0.2)
        slps[0].find_services(SERVICE_SIP_CONTACT, "(user=sip:bob@h)", callback=lambda e: None)
        sim.run(5.0)
        assert stats.traffic_packets("slp") == 0
        assert stats.traffic_packets("aodv") > 0


class TestOlsrDissemination:
    def test_adverts_converge_proactively(self):
        sim, stats, nodes, slps = build("olsr")
        sim.run(15.0)
        slps[3].register(sip_url(nodes[3]), {"user": "sip:bob@h"})
        sim.run(45.0)
        for slp in slps[:3]:
            assert slp.lookup_cached(SERVICE_SIP_CONTACT, "(user=sip:bob@h)")

    def test_cache_hit_after_convergence(self):
        sim, stats, nodes, slps = build("olsr")
        sim.run(15.0)
        slps[3].register(sip_url(nodes[3]), {"user": "sip:bob@h"})
        sim.run(45.0)
        misses = stats.count("manetslp.cache_misses")
        results = []
        slps[0].find_services(SERVICE_SIP_CONTACT, "(user=sip:bob@h)", callback=results.append)
        sim.run(46.0)
        assert results and results[0]
        assert stats.count("manetslp.cache_misses") == misses

    def test_query_resolves_before_convergence(self):
        sim, stats, nodes, slps = build("olsr")
        sim.run(15.0)
        slps[3].register(sip_url(nodes[3]), {"user": "sip:bob@h"})
        # Immediately query from the far end (cache cannot have converged).
        results = []
        slps[0].find_services(SERVICE_SIP_CONTACT, "(user=sip:bob@h)", callback=results.append)
        sim.run(25.0)
        assert results and results[0]


class TestCacheSemantics:
    def test_remote_removal_on_dereg_advert(self):
        sim, stats, nodes, slps = build("olsr", n=2)
        sim.run(10.0)
        slps[1].register(sip_url(nodes[1]), {"user": "sip:bob@h"})
        sim.run(20.0)
        assert slps[0].lookup_cached(SERVICE_SIP_CONTACT, "(user=sip:bob@h)")
        slps[1].deregister(sip_url(nodes[1]))
        sim.run(40.0)
        assert not slps[0].lookup_cached(SERVICE_SIP_CONTACT, "(user=sip:bob@h)")

    def test_cache_entry_expires(self):
        config = ManetSlpConfig(advert_lifetime=8.0, refresh_interval=0)
        sim, stats, nodes, slps = build("olsr", n=2, config=config)
        sim.run(10.0)
        slps[1].register(sip_url(nodes[1]), {"user": "sip:bob@h"}, lifetime=8.0)
        sim.run(16.0)
        assert slps[0].lookup_cached(SERVICE_SIP_CONTACT, "(user=sip:bob@h)")
        slps[1].stop()  # no refresh
        sim.run(30.0)
        assert not slps[0].lookup_cached(SERVICE_SIP_CONTACT, "(user=sip:bob@h)")

    def test_own_adverts_never_cached(self):
        sim, stats, nodes, slps = build("olsr", n=2)
        sim.run(10.0)
        slps[0].register(sip_url(nodes[0]), {"user": "sip:a@h"})
        sim.run(30.0)
        assert slps[0].cached_services() == [] or all(
            entry.origin != nodes[0].ip for entry in slps[0].cached_services()
        )

    def test_refresh_keeps_remote_entries_alive(self):
        config = ManetSlpConfig(advert_lifetime=10.0, refresh_interval=4.0)
        sim, stats, nodes, slps = build("olsr", n=2, config=config)
        sim.run(10.0)
        slps[1].register(sip_url(nodes[1]), {"user": "sip:bob@h"}, lifetime=10.0)
        sim.run(60.0)
        assert slps[0].lookup_cached(SERVICE_SIP_CONTACT, "(user=sip:bob@h)")


class TestXidWrap:
    """SLP XIDs are 16 bits on the wire: the 65,536th one wraps to 0."""

    @pytest.mark.parametrize("protocol", ["aodv", "olsr"])
    def test_lookup_xid_wraps(self, protocol):
        sim, stats, nodes, slps = build(protocol, n=2)
        slps[0]._xid = itertools.count(65536)
        assert slps[0].find_services("no-such-service") == 0
        sim.run(5.0)
        assert stats.count("manetslp.lookups_failed") == 1

    @pytest.mark.parametrize("protocol", ["aodv", "olsr"])
    def test_advert_xid_wraps(self, protocol):
        sim, stats, nodes, slps = build(protocol, n=2)
        slps[0].handler._xid = itertools.count(65536)
        slps[0].register(sip_url(nodes[0]), {"user": "sip:a@h"})
        if protocol == "aodv":
            nodes[0].router.discover(nodes[1].ip)  # an RREQ to carry the advert
        sim.run(10.0)
        assert slps[1].lookup_cached(SERVICE_SIP_CONTACT, "(user=sip:a@h)")
