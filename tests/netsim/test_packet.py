"""Unit tests for the packet model and addressing helpers."""

import pytest

from repro.netsim import (
    BROADCAST,
    FRAMING_BYTES,
    Chain,
    Datagram,
    Node,
    Packet,
    Simulator,
    Verdict,
    internet_ip,
    is_internet_address,
    is_manet_address,
    manet_ip,
)


class TestDatagram:
    def test_payload_must_be_bytes(self):
        with pytest.raises(TypeError):
            Datagram(1, 2, "not bytes")

    def test_bytearray_coerced(self):
        datagram = Datagram(1, 2, bytearray(b"xy"))
        assert datagram.data == b"xy"

    def test_size_includes_udp_header(self):
        assert Datagram(1, 2, b"12345").size == 5 + 8


class TestPacket:
    def test_size_includes_all_framing(self):
        packet = Packet("1.2.3.4", "5.6.7.8", Datagram(1, 2, b"x" * 10))
        assert packet.size == 10 + FRAMING_BYTES

    def test_forwarded_decrements_ttl_keeps_uid(self):
        packet = Packet("1.2.3.4", "5.6.7.8", Datagram(1, 2, b""), ttl=10)
        hop = packet.forwarded()
        assert hop.ttl == 9
        assert hop.uid == packet.uid
        assert packet.ttl == 10  # original untouched

    def test_with_data_replaces_payload_only(self):
        packet = Packet("1.2.3.4", "5.6.7.8", Datagram(7, 9, b"old"))
        mutated = packet.with_data(b"new payload")
        assert mutated.data == b"new payload"
        assert (mutated.sport, mutated.dport) == (7, 9)
        assert mutated.uid == packet.uid
        assert packet.data == b"old"

    def test_broadcast_detection(self):
        packet = Packet("1.2.3.4", BROADCAST, Datagram(1, 2, b""))
        assert packet.is_broadcast()

    def test_uids_unique(self):
        # A node draws each packet's uid from its run's stream.
        node = Node(Simulator(seed=1), 0, manet_ip(0))
        uids = []

        def capture(packet):
            uids.append(packet.uid)
            return Verdict.DROP, packet

        node.hooks.register(Chain.OUTPUT, {2}, capture)
        node.send_udp(manet_ip(1), 1, 2, b"")
        node.send_udp(manet_ip(1), 1, 2, b"")
        assert len(uids) == 2 and uids[0] != uids[1]

    def test_packet_built_outside_a_run_has_uid_zero(self):
        assert Packet("1.1.1.1", "2.2.2.2", Datagram(1, 2, b"")).uid == 0


class TestAddressing:
    def test_manet_ips_unique_and_valid(self):
        ips = {manet_ip(i) for i in range(500)}
        assert len(ips) == 500
        assert all(is_manet_address(ip) for ip in ips)

    def test_manet_ip_range_check(self):
        with pytest.raises(ValueError):
            manet_ip(-1)
        with pytest.raises(ValueError):
            manet_ip(250 * 250)

    def test_internet_ips_distinct_space(self):
        assert is_internet_address(internet_ip(3))
        assert not is_manet_address(internet_ip(3))
        assert not is_internet_address(manet_ip(3))
