"""Unit tests for node IP forwarding, sockets, hooks and default routes."""

import pytest

from repro.errors import PortInUseError
from repro.netsim import (
    BROADCAST,
    Chain,
    Datagram,
    NetfilterHooks,
    Node,
    Packet,
    Simulator,
    StaticRouter,
    Verdict,
    WirelessMedium,
    manet_ip,
)
from tests.conftest import make_chain


class TestSockets:
    def test_bind_and_receive(self, sim, medium):
        a, b = make_chain(sim, medium, 2, static_routes=True)
        got = []
        b.bind(5000, lambda data, src, sport: got.append((data, src, sport)))
        a.send_udp(b.ip, 4000, 5000, b"hi")
        sim.run(1.0)
        assert got == [(b"hi", a.ip, 4000)]

    def test_double_bind_rejected(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        a.bind(5000, lambda *args: None)
        with pytest.raises(PortInUseError):
            a.bind(5000, lambda *args: None)

    def test_closed_socket_port_reusable(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        socket = a.bind(5000, lambda *args: None)
        socket.close()
        a.bind(5000, lambda *args: None)  # no exception

    def test_send_on_closed_socket_raises(self, sim, medium):
        a, b = make_chain(sim, medium, 2, static_routes=True)
        socket = a.bind(5000, lambda *args: None)
        socket.close()
        with pytest.raises(OSError):
            socket.send(b.ip, 5000, b"x")

    def test_closed_socket_drops_handler(self, sim, medium):
        a, b = make_chain(sim, medium, 2, static_routes=True)
        got = []
        socket = b.bind(5000, lambda *args: got.append(args))
        socket.close()
        assert socket.handler is None
        a.send_udp(b.ip, 4000, 5000, b"x")
        sim.run(1.0)
        assert got == []
        assert b.stats.count("udp.port_unreachable") == 1

    def test_crash_drops_socket_handlers(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        socket = a.bind(5000, lambda *args: None)
        a.crash()
        assert socket.closed
        assert socket.handler is None

    def test_ephemeral_ports_distinct(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        s1 = a.bind_ephemeral(lambda *args: None)
        s2 = a.bind_ephemeral(lambda *args: None)
        assert s1.port != s2.port
        assert s1.port >= 49152

    def test_unbound_port_counts_unreachable(self, sim, medium):
        a, b = make_chain(sim, medium, 2, static_routes=True)
        a.send_udp(b.ip, 4000, 9999, b"x")
        sim.run(1.0)
        assert b.stats.count("udp.port_unreachable") == 1


class TestLocalDelivery:
    def test_loopback_delivery(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        got = []
        a.bind(5000, lambda data, src, sport: got.append(data))
        a.send_udp("127.0.0.1", 4000, 5000, b"loop")
        sim.run(0.1)
        assert got == [b"loop"]

    def test_own_address_delivery(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        got = []
        a.bind(5000, lambda data, src, sport: got.append(data))
        a.send_udp(a.ip, 4000, 5000, b"self")
        sim.run(0.1)
        assert got == [b"self"]

    def test_extra_local_address(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        a.add_local_address("10.0.0.42")
        assert a.is_local_address("10.0.0.42")
        a.remove_local_address("10.0.0.42")
        assert not a.is_local_address("10.0.0.42")


class TestForwarding:
    def test_multihop_forwarding(self, sim, medium, chain3):
        a, b, c = chain3
        got = []
        c.bind(5000, lambda data, src, sport: got.append(src))
        a.send_udp(c.ip, 4000, 5000, b"via-b")
        sim.run(1.0)
        assert got == [a.ip]

    def test_ttl_expiry_drops_packet(self, sim, medium, chain3):
        a, b, c = chain3
        got = []
        c.bind(5000, lambda data, src, sport: got.append(src))
        a.send_udp(c.ip, 4000, 5000, b"x", ttl=1)
        sim.run(1.0)
        assert got == []
        assert b.stats.count("ip.ttl_expired") == 1

    def test_no_router_counts_no_route(self, sim, medium):
        a, b = make_chain(sim, medium, 2, static_routes=False)
        a.send_udp(b.ip, 4000, 5000, b"x")
        assert a.stats.count("ip.no_route") == 1

    def test_down_node_ignores_traffic(self, sim, medium, chain3):
        a, b, c = chain3
        got = []
        c.bind(5000, lambda data, src, sport: got.append(src))
        b.up = False
        a.send_udp(c.ip, 4000, 5000, b"x")
        sim.run(1.0)
        assert got == []


class TestDefaultRoutes:
    def test_priority_order(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        taken = []
        a.set_default_route("tunnel", lambda pkt: taken.append("tunnel"), priority=10)
        a.set_default_route("wired", lambda pkt: taken.append("wired"), priority=0)
        a.send_udp("10.0.0.1", 4000, 5000, b"x")
        assert taken == ["wired"]

    def test_clear_falls_back(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        taken = []
        a.set_default_route("wired", lambda pkt: taken.append("wired"), priority=0)
        a.set_default_route("tunnel", lambda pkt: taken.append("tunnel"), priority=10)
        a.clear_default_route("wired")
        a.send_udp("10.0.0.1", 4000, 5000, b"x")
        assert taken == ["tunnel"]

    def test_no_default_route_counts(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        a.send_udp("10.0.0.1", 4000, 5000, b"x")
        assert a.stats.count("ip.no_route") == 1

    def test_replace_same_name(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        taken = []
        a.set_default_route("wired", lambda pkt: taken.append(1))
        a.set_default_route("wired", lambda pkt: taken.append(2))
        a.send_udp("10.0.0.1", 4000, 5000, b"x")
        assert taken == [2]


class TestNetfilterHooks:
    def test_output_hook_mutates_payload(self, sim, medium, chain3):
        a, b, c = chain3
        a.hooks.register(
            Chain.OUTPUT, {5000}, lambda pkt: (Verdict.ACCEPT, pkt.with_data(b"mangled"))
        )
        got = []
        b.bind(5000, lambda data, src, sport: got.append(data))
        a.send_udp(b.ip, 4000, 5000, b"original")
        sim.run(1.0)
        assert got == [b"mangled"]

    def test_output_hook_drop(self, sim, medium, chain3):
        a, b, c = chain3
        a.hooks.register(Chain.OUTPUT, {5000}, lambda pkt: (Verdict.DROP, pkt))
        got = []
        b.bind(5000, lambda data, src, sport: got.append(data))
        a.send_udp(b.ip, 4000, 5000, b"x")
        sim.run(1.0)
        assert got == []

    def test_input_hook_sees_broadcast(self, sim, medium, chain3):
        a, b, c = chain3
        seen = []

        def hook(pkt):
            seen.append(pkt.data)
            return (Verdict.ACCEPT, pkt)

        b.hooks.register(Chain.INPUT, {5000}, hook)
        b.bind(5000, lambda *args: None)
        a.send_udp(BROADCAST, 4000, 5000, b"bcast")
        sim.run(1.0)
        assert seen == [b"bcast"]

    def test_hook_port_filter(self, sim, medium, chain3):
        a, b, c = chain3
        seen = []
        a.hooks.register(
            Chain.OUTPUT, {6000}, lambda pkt: (seen.append(1), (Verdict.ACCEPT, pkt))[1]
        )
        b.bind(5000, lambda *args: None)
        a.send_udp(b.ip, 4000, 5000, b"x")
        assert seen == []

    def test_unregister_hook(self, sim, medium, chain3):
        a, b, c = chain3
        seen = []

        def hook(pkt):
            seen.append(1)
            return (Verdict.ACCEPT, pkt)

        handle = a.hooks.register(Chain.OUTPUT, {5000}, hook)
        a.hooks.unregister(handle)
        b.bind(5000, lambda *args: None)
        a.send_udp(b.ip, 4000, 5000, b"x")
        assert seen == []

    def test_hooks_chain_in_order(self, sim, medium, chain3):
        a, b, c = chain3
        a.hooks.register(
            Chain.OUTPUT, {5000}, lambda pkt: (Verdict.ACCEPT, pkt.with_data(pkt.data + b"1"))
        )
        a.hooks.register(
            Chain.OUTPUT, {5000}, lambda pkt: (Verdict.ACCEPT, pkt.with_data(pkt.data + b"2"))
        )
        got = []
        b.bind(5000, lambda data, src, sport: got.append(data))
        a.send_udp(b.ip, 4000, 5000, b"x")
        sim.run(1.0)
        assert got == [b"x12"]

    def test_port_index_follows_register_and_unregister(self):
        hooks = NetfilterHooks()

        def accept(pkt):
            return (Verdict.ACCEPT, pkt)

        first = hooks.register(Chain.OUTPUT, {654, 698}, accept)
        second = hooks.register(Chain.OUTPUT, {654}, accept)
        inbound = hooks.register(Chain.INPUT, {427}, accept)
        assert (hooks.output_ports, hooks.input_ports) == ({654, 698}, {427})
        hooks.unregister(first)
        assert hooks.output_ports == {654}  # still watched by the second hook
        hooks.unregister(second)
        hooks.unregister(inbound)
        assert (hooks.output_ports, hooks.input_ports) == (set(), set())

    def test_hook_registered_mid_traffic_sees_next_packet(self, sim, medium, chain3):
        a, b, c = chain3
        got, seen_out, seen_in = [], [], []
        b.bind(5000, lambda data, src, sport: got.append(data))
        a.send_udp(b.ip, 4000, 5000, b"before")
        sim.run(1.0)

        def tap(seen):
            def hook(pkt):
                seen.append(pkt.data)
                return (Verdict.ACCEPT, pkt)

            return hook

        a.hooks.register(Chain.OUTPUT, {5000}, tap(seen_out))
        b.hooks.register(Chain.INPUT, {5000}, tap(seen_in))
        a.send_udp(b.ip, 4000, 5000, b"after")
        sim.run(2.0)
        assert got == [b"before", b"after"]
        assert seen_out == seen_in == [b"after"]

    def test_input_hook_drop(self, sim, medium, chain3):
        a, b, c = chain3
        b.hooks.register(Chain.INPUT, {5000}, lambda pkt: (Verdict.DROP, pkt))
        got = []
        b.bind(5000, lambda data, src, sport: got.append(data))
        b.bind(5001, lambda data, src, sport: got.append(data))
        a.send_udp(b.ip, 4000, 5000, b"dropped")
        a.send_udp(b.ip, 4000, 5001, b"unwatched")
        sim.run(1.0)
        assert got == [b"unwatched"]


class TestStaticRouter:
    def test_missing_route_counts(self, sim, medium):
        a, b = make_chain(sim, medium, 2)
        router = StaticRouter(a)
        a.set_router(router)
        a.send_udp(b.ip, 4000, 5000, b"x")
        assert a.stats.count("ip.no_route") == 1
