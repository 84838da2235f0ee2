"""Behavioural tests for the multicast (flooding) SLP agent baseline."""

import itertools

import pytest

from repro.netsim import Node, Simulator, Stats, WirelessMedium, manet_ip, place_chain
from repro.routing import Aodv
from repro.slp import SlpAgent


def build_agents(n, seed=1):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
    nodes, agents = [], []
    for index in range(n):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        Aodv(node).start()  # replies are unicast -> need real routing
        agents.append(SlpAgent(node))
        nodes.append(node)
    place_chain(nodes, 100.0)
    return sim, stats, nodes, agents


class TestLocalRegistration:
    def test_register_and_local_find(self):
        sim, stats, nodes, agents = build_agents(1)
        agents[0].register(
            "service:siphoc-sip://192.168.0.1:5060", {"user": "sip:a@h"}, lifetime=60
        )
        results = []
        agents[0].find_services("siphoc-sip", callback=results.append)
        sim.run(3.0)
        assert len(results[0]) == 1

    def test_deregister(self):
        sim, stats, nodes, agents = build_agents(1)
        agents[0].register("service:siphoc-sip://192.168.0.1:5060")
        agents[0].deregister("service:siphoc-sip://192.168.0.1:5060")
        assert agents[0].local_services() == []

    def test_expired_registration_not_served(self):
        sim, stats, nodes, agents = build_agents(1)
        agents[0].register("service:siphoc-sip://192.168.0.1:5060", lifetime=5.0)
        sim.run(6.0)
        assert agents[0].local_services() == []


class TestNetworkLookup:
    def test_multihop_lookup(self):
        sim, stats, nodes, agents = build_agents(4)
        agents[3].register(
            f"service:siphoc-sip://{nodes[3].ip}:5060",
            {"user": "sip:bob@voicehoc.ch"},
            lifetime=600,
        )
        sim.run(0.5)
        results = []
        agents[0].find_services(
            "siphoc-sip", "(user=sip:bob@voicehoc.ch)", timeout=5.0,
            callback=results.append,
        )
        sim.run(10.0)
        assert results and len(results[0]) == 1
        assert results[0][0].url.host == nodes[3].ip

    def test_no_match_returns_empty(self):
        sim, stats, nodes, agents = build_agents(3)
        results = []
        agents[0].find_services("siphoc-sip", "(user=sip:ghost@h)", callback=results.append)
        sim.run(10.0)
        assert results == [[]]

    def test_lookup_floods_network(self):
        """Every lookup costs a network-wide flood — the criticised overhead."""
        sim, stats, nodes, agents = build_agents(5)
        agents[0].find_services("siphoc-sip", callback=lambda e: None)
        sim.run(5.0)
        # Original request + rebroadcast by every other node exactly once.
        assert stats.traffic_packets("slp") >= 5
        assert stats.count("slp.requests_forwarded") == 4

    def test_duplicate_requests_suppressed(self):
        sim, stats, nodes, agents = build_agents(3)
        agents[0].find_services("siphoc-sip", callback=lambda e: None)
        sim.run(5.0)
        # Each node forwards at most once despite hearing multiple copies.
        assert stats.count("slp.requests_forwarded") <= 2

    def test_xid_wraps_to_16_bits(self):
        sim, stats, nodes, agents = build_agents(2)
        agents[0]._xid = itertools.count(65536)
        results = []
        assert agents[0].find_services("no-such-service", callback=results.append) == 0
        sim.run(5.0)
        assert results == [[]]
        assert stats.count("slp.requests_forwarded") == 1

    def test_multiple_providers_all_reported(self):
        sim, stats, nodes, agents = build_agents(3)
        for index in (1, 2):
            agents[index].register(
                f"service:siphoc-sip://{nodes[index].ip}:5060",
                {"user": f"sip:u{index}@h"},
                lifetime=600,
            )
        sim.run(0.5)
        results = []
        agents[0].find_services("siphoc-sip", timeout=5.0, callback=results.append)
        sim.run(10.0)
        assert len(results[0]) == 2
