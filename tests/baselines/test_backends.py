"""Behavioural tests for the related-work discovery baselines.

Every backend is exercised through the common interface on the same
4-node chain; scheme-specific properties (traffic shape, convergence
mode) get dedicated tests.
"""

import pytest

from repro.baselines import (
    FloodingSipBackend,
    ManetSlpBackend,
    MulticastSlpBackend,
    ProactiveHelloBackend,
)
from repro.baselines.flooding_sip import FLOODING_PORT
from repro.netsim import Node, Simulator, Stats, WirelessMedium, manet_ip, place_chain
from repro.routing import Aodv

BACKENDS = {
    "siphoc": lambda node, daemon: ManetSlpBackend(node, daemon),
    "multicast-slp": lambda node, daemon: MulticastSlpBackend(node),
    "flooding-register": lambda node, daemon: FloodingSipBackend(node),
    "proactive-hello": lambda node, daemon: ProactiveHelloBackend(node),
}


def build(factory, n=4, seed=71):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
    nodes, backends = [], []
    for index in range(n):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        daemon = Aodv(node)
        daemon.start()
        backend = factory(node, daemon)
        backend.start()
        nodes.append(node)
        backends.append(backend)
    place_chain(nodes, 100.0)
    return sim, stats, nodes, backends


@pytest.mark.parametrize("name", sorted(BACKENDS))
class TestCommonInterface:
    def test_resolve_remote_user(self, name):
        sim, stats, nodes, backends = build(BACKENDS[name])
        backends[3].register_user("sip:bob@voicehoc.ch", nodes[3].ip, 5060)
        sim.run(12.0)  # proactive schemes need a refresh cycle
        results = []
        backends[0].resolve("sip:bob@voicehoc.ch", results.append, timeout=4.0)
        sim.run(20.0)
        assert results, f"{name}: no callback"
        binding = results[0]
        assert binding is not None, f"{name}: unresolved"
        assert binding.host == nodes[3].ip
        assert binding.port == 5060

    def test_resolve_unknown_user_returns_none(self, name):
        sim, stats, nodes, backends = build(BACKENDS[name])
        results = []
        backends[0].resolve("sip:ghost@voicehoc.ch", results.append, timeout=3.0)
        sim.run(20.0)
        assert results == [None]

    def test_resolve_own_user(self, name):
        sim, stats, nodes, backends = build(BACKENDS[name])
        backends[0].register_user("sip:me@voicehoc.ch", nodes[0].ip, 5060)
        results = []
        backends[0].resolve("sip:me@voicehoc.ch", results.append)
        sim.run(5.0)  # multicast SLP waits out its collection window
        assert results[0] is not None


class TestFloodingRegister:
    def test_registration_traffic_is_periodic(self):
        sim, stats, nodes, backends = build(BACKENDS["flooding-register"])
        backends[0].register_user("sip:a@h", nodes[0].ip, 5060)
        sim.run(35.0)
        # Initial flood + ~3 refresh floods, each re-flooded by 3 nodes.
        assert stats.count("flooding.registers_sent") >= 3
        assert stats.count("flooding.registers_forwarded") >= 6
        assert stats.traffic_bytes("flooding-register") > 0

    def test_all_nodes_learn_the_table(self):
        sim, stats, nodes, backends = build(BACKENDS["flooding-register"])
        for index, backend in enumerate(backends):
            backend.register_user(f"sip:u{index}@h", nodes[index].ip, 5060)
        sim.run(15.0)
        assert all(backend.table_size() == 4 for backend in backends)

    def test_bindings_expire_without_refresh(self):
        sim, stats, nodes, backends = build(BACKENDS["flooding-register"])
        backends[0].register_user("sip:a@h", nodes[0].ip, 5060)
        sim.run(5.0)
        backends[0].stop()  # no more refresh floods
        expiry = FloodingSipBackend.BINDING_LIFETIME
        sim.run(5.0 + expiry + 15.0)
        assert backends[3].table_size() == 0

    def test_malformed_register_is_ignored(self):
        sim, stats, nodes, backends = build(BACKENDS["flooding-register"])
        wire = (
            "REGISTER sip:h SIP/2.0\r\n"
            f"Via: SIP/2.0/UDP {nodes[0].ip}:{FLOODING_PORT};branch=z9hG4bKbad\r\n"
            "To: nope\r\n"
            f"Contact: <sip:a@{nodes[0].ip}:5060>\r\n"
            "Call-ID: bad\r\nCSeq: 1 REGISTER\r\nMax-Forwards: 3\r\n\r\n"
        ).encode()
        nodes[0].send_udp(nodes[1].ip, FLOODING_PORT, FLOODING_PORT, wire)
        sim.run(2.0)  # raised SipParseError from the lazy To parse before
        assert backends[1].table_size() == 0


class TestProactiveHello:
    def test_gossip_spreads_mappings(self):
        sim, stats, nodes, backends = build(BACKENDS["proactive-hello"])
        backends[0].register_user("sip:a@h", nodes[0].ip, 5060)
        sim.run(20.0)
        assert backends[3].table_size() == 1
        assert stats.traffic_bytes("proactive-hello") > 0

    def test_hello_size_grows_with_table(self):
        sim, stats, nodes, backends = build(BACKENDS["proactive-hello"])
        for index, backend in enumerate(backends):
            backend.register_user(f"sip:user{index}@voicehoc.ch", nodes[index].ip, 5060)
        sim.run(12.0)
        early_bytes = stats.traffic_bytes("proactive-hello")
        early_packets = stats.traffic_packets("proactive-hello")
        sim.run(24.0)
        late_bytes = stats.traffic_bytes("proactive-hello") - early_bytes
        late_packets = stats.traffic_packets("proactive-hello") - early_packets
        # Once everyone gossips everyone's mappings, per-packet size grows.
        assert late_bytes / max(1, late_packets) > early_bytes / max(1, early_packets)


class TestSiphocBackendCharacter:
    def test_no_dedicated_discovery_traffic(self):
        sim, stats, nodes, backends = build(BACKENDS["siphoc"])
        backends[3].register_user("sip:bob@h", nodes[3].ip, 5060)
        sim.run(1.0)
        results = []
        backends[0].resolve("sip:bob@h", results.append, timeout=4.0)
        sim.run(10.0)
        assert results[0] is not None
        assert stats.traffic_bytes("slp") == 0
        assert stats.traffic_bytes("flooding-register") == 0
        assert stats.traffic_bytes("proactive-hello") == 0
