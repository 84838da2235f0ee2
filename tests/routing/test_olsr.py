"""Unit/behavioural tests for the OLSR daemon."""

import pytest

from repro.netsim import (
    BROADCAST,
    Node,
    PacketCapture,
    Simulator,
    Stats,
    WirelessMedium,
    manet_ip,
    place_chain,
)
from repro.routing import (
    OLSR_HELLO,
    OLSR_SLP,
    OLSR_TC,
    Olsr,
    OlsrMessage,
    decode_olsr_packet,
)


def build_olsr(positions, seed=1, tx_range=150.0):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=tx_range)
    nodes, daemons = [], []
    for index, position in enumerate(positions):
        node = Node(sim, index, manet_ip(index), position=position, stats=stats)
        node.join_medium(medium)
        daemon = Olsr(node)
        daemon.start()
        nodes.append(node)
        daemons.append(daemon)
    return sim, stats, medium, nodes, daemons


def chain_positions(n, spacing=100.0):
    return [(i * spacing, 0.0) for i in range(n)]


class TestNeighborSensing:
    def test_symmetric_links_after_handshake(self):
        sim, stats, medium, nodes, daemons = build_olsr(chain_positions(2))
        sim.run(6.0)
        assert nodes[1].ip in daemons[0].symmetric_neighbors()
        assert nodes[0].ip in daemons[1].symmetric_neighbors()

    def test_out_of_range_not_neighbor(self):
        sim, stats, medium, nodes, daemons = build_olsr([(0, 0), (1000, 0)])
        sim.run(10.0)
        assert daemons[0].symmetric_neighbors() == []

    def test_link_times_out_when_node_leaves(self):
        sim, stats, medium, nodes, daemons = build_olsr(chain_positions(2))
        sim.run(6.0)
        assert daemons[0].symmetric_neighbors()
        nodes[1].position = (5000.0, 0.0)
        sim.run(6.0 + Olsr.NEIGHB_HOLD_TIME + 2.0)
        assert daemons[0].symmetric_neighbors() == []


class TestMprSelection:
    def test_chain_middle_node_is_mpr(self):
        sim, stats, medium, nodes, daemons = build_olsr(chain_positions(3))
        sim.run(10.0)
        # Node 0 must select node 1 as MPR to reach node 2.
        assert nodes[1].ip in daemons[0].mpr_set
        assert nodes[0].ip in daemons[1].mpr_selectors()

    def test_no_mprs_needed_in_full_mesh(self):
        positions = [(0, 0), (50, 0), (0, 50)]
        sim, stats, medium, nodes, daemons = build_olsr(positions)
        sim.run(10.0)
        assert daemons[0].mpr_set == set()

    def test_star_center_covers_all(self):
        # 4 leaves around a center; leaves only reach each other via center.
        positions = [(0, 0), (140, 0), (-140, 0), (0, 140), (0, -140)]
        sim, stats, medium, nodes, daemons = build_olsr(positions)
        sim.run(12.0)
        for leaf in range(1, 5):
            assert daemons[leaf].mpr_set == {nodes[0].ip}


class TestRouting:
    def test_multihop_routes_computed(self):
        sim, stats, medium, nodes, daemons = build_olsr(chain_positions(5))
        sim.run(20.0)
        daemons[0].recompute_routes()
        assert daemons[0].hop_count_to(nodes[4].ip) == 4
        assert daemons[0].route_to(nodes[4].ip).next_hop == nodes[1].ip

    def test_data_delivery_over_chain(self):
        sim, stats, medium, nodes, daemons = build_olsr(chain_positions(4))
        sim.run(20.0)
        got = []
        nodes[3].bind(9000, lambda data, src, sport: got.append(data))
        nodes[0].send_udp(nodes[3].ip, 9000, 9000, b"proactive")
        sim.run(22.0)
        assert got == [b"proactive"]

    def test_no_route_counted_when_unconverged(self):
        sim, stats, medium, nodes, daemons = build_olsr(chain_positions(3))
        nodes[0].send_udp(nodes[2].ip, 9000, 9000, b"early")
        assert stats.count("olsr.no_route") == 1

    def test_reroute_after_node_failure(self):
        # Diamond: 0 - (1 top, 2 bottom) - 3; both paths 2 hops.
        positions = [(0, 0), (100, 60), (100, -60), (200, 0)]
        sim, stats, medium, nodes, daemons = build_olsr(positions)
        sim.run(20.0)
        daemons[0].recompute_routes()
        assert daemons[0].hop_count_to(nodes[3].ip) == 2
        first_hop = daemons[0].route_to(nodes[3].ip).next_hop
        failed = nodes[1] if first_hop == nodes[1].ip else nodes[2]
        failed.up = False
        sim.run(20.0 + Olsr.NEIGHB_HOLD_TIME + Olsr.TC_INTERVAL * 3)
        daemons[0].recompute_routes()
        route = daemons[0].route_to(nodes[3].ip)
        assert route is not None
        assert route.next_hop != failed.ip


class TestTcFlooding:
    def test_tc_spreads_topology_network_wide(self):
        sim, stats, medium, nodes, daemons = build_olsr(chain_positions(5))
        sim.run(25.0)
        daemons[4].recompute_routes()
        assert daemons[4].hop_count_to(nodes[0].ip) == 4

    def test_unknown_message_type_flooded(self):
        """RFC 3626 default forwarding: type-130 messages spread end to end."""
        sim, stats, medium, nodes, daemons = build_olsr(chain_positions(4))
        sim.run(15.0)  # let MPR relationships form
        capture = PacketCapture(port_filter={Olsr.port})
        medium.add_sniffer(capture.on_frame)
        daemons[0].send_packet(
            [
                OlsrMessage(
                    msg_type=OLSR_SLP,
                    orig_ip=nodes[0].ip,
                    seq=daemons[0].next_message_seq(),
                    body=b"opaque-slp-payload",
                    ttl=255,
                )
            ]
        )
        sim.run(18.0)
        senders = set()
        for frame in capture.frames:
            _, messages = decode_olsr_packet(frame.packet.data)
            if any(m.msg_type == OLSR_SLP for m in messages):
                senders.add(frame.sender_ip)
        # Re-flooded by at least the chain's interior MPR nodes.
        assert nodes[1].ip in senders
        assert nodes[2].ip in senders


class TestMalformedPackets:
    def test_malformed_packet_is_dropped_and_counted(self):
        sim, stats, medium, nodes, daemons = build_olsr(chain_positions(3))
        sim.run(10.0)
        nodes[0].send_udp(BROADCAST, Olsr.port, Olsr.port, b"\x01\x00")
        sim.run(sim.now + 1.0)
        assert stats.count("olsr.malformed") == 1  # only node 1 is in range
        sim.run(sim.now + 10.0)
        daemons[0].recompute_routes()
        assert daemons[0].hop_count_to(nodes[2].ip) == 2

    @pytest.mark.parametrize(
        "msg_type, body",
        [
            (OLSR_HELLO, b"\x00\x03\x02\x00\x00\x05"),  # five neighbours announced, none sent
            (OLSR_TC, b"\x00"),  # ANSN cut short
            pytest.param(
                OLSR_TC,
                b"\x00\x01\x00\x00\x0a\x00\x00\x02\x0a\x00",  # second selector cut short
                id="tc-address-cut-short",
            ),
        ],
    )
    def test_malformed_message_body_is_dropped_and_counted(self, msg_type, body):
        sim, stats, medium, nodes, daemons = build_olsr(chain_positions(2))
        sim.run(6.0)
        daemons[0].send_packet(
            (
                OlsrMessage(
                    msg_type=msg_type,
                    orig_ip=nodes[0].ip,
                    seq=daemons[0].next_message_seq(),
                    body=body,
                    ttl=1,
                ),
            )
        )
        sim.run(sim.now + 1.0)
        assert stats.count("olsr.malformed") == 1
        sim.run(sim.now + 6.0)
        assert nodes[0].ip in daemons[1].symmetric_neighbors()
