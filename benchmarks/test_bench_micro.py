"""Micro-benchmarks: raw throughput of the performance-critical paths.

Not a paper artifact; these keep the implementation honest (the simulator,
parsers and codecs are the inner loops of every experiment above).
"""

import pytest

from repro.netsim import Simulator
from repro.routing import Rreq, decode_aodv, encode_aodv
from repro.rtp import RtpPacket, decode_rtp
from repro.sip import parse_message
from repro.slp import SrvReg, UrlEntry, decode_slp, encode_slp

INVITE_WIRE = (
    b"INVITE sip:bob@voicehoc.ch SIP/2.0\r\n"
    b"Via: SIP/2.0/UDP 192.168.0.1:5070;branch=z9hG4bK-77\r\n"
    b"From: \"Alice\" <sip:alice@voicehoc.ch>;tag=a1\r\n"
    b"To: <sip:bob@voicehoc.ch>\r\n"
    b"Call-ID: cid42@192.168.0.1\r\n"
    b"CSeq: 1 INVITE\r\n"
    b"Max-Forwards: 70\r\n"
    b"Contact: <sip:alice@192.168.0.1:5070>\r\n"
    b"Content-Length: 0\r\n\r\n"
)


def test_sip_parse_throughput(benchmark):
    message = benchmark(parse_message, INVITE_WIRE)
    assert message.method == "INVITE"


def test_sip_serialize_throughput(benchmark):
    message = parse_message(INVITE_WIRE)
    wire = benchmark(message.serialize)
    assert wire.startswith(b"INVITE")


def test_aodv_codec_throughput(benchmark):
    rreq = Rreq(rreq_id=1, dest_ip="192.168.0.9", dest_seq=1,
                orig_ip="192.168.0.1", orig_seq=2)
    wire = encode_aodv(rreq)

    def round_trip():
        return decode_aodv(wire)

    message, _ = benchmark(round_trip)
    assert message.dest_ip == "192.168.0.9"


def test_slp_codec_throughput(benchmark):
    reg = SrvReg(xid=1, entry=UrlEntry(
        url="service:siphoc-sip://192.168.0.5:5060", lifetime=120,
        attributes="(user=sip:bob@voicehoc.ch)"))
    wire = encode_slp(reg)
    decoded = benchmark(decode_slp, wire)
    assert decoded == reg


def test_rtp_codec_throughput(benchmark):
    wire = RtpPacket(0, 1, 160, 0xABCD, b"\x00" * 160).encode()
    packet = benchmark(decode_rtp, wire)
    assert packet.sequence == 1


def _run_tick_chain(n_events, pending=0):
    """Drive ``n_events`` through a tick chain, optionally with ballast.

    ``pending`` far-future timers sit in the queue the whole time — the
    load shape of a big scenario (thousands of armed SIP/AODV timers)
    where per-event cost must not grow with queue depth.
    """
    sim = Simulator(seed=1)
    for index in range(pending):
        sim.schedule(3600.0 + index, lambda: None)
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n_events:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    sim.run(100.0)
    return count[0]


def test_simulator_event_throughput(benchmark):
    assert benchmark(_run_tick_chain, 10_000) == 10_000


@pytest.mark.parametrize("pending", [1000, 5000])
def test_simulator_throughput_pending(benchmark, pending):
    """Event throughput with 1k/5k timers pending.

    The heap pays O(log n) per operation, so per-event cost grows only
    logarithmically with the armed-timer ballast of a big scenario.
    """
    assert benchmark(_run_tick_chain, 10_000, pending=pending) == 10_000


# -- simulation inner-loop fast paths ----------------------------------------
#
# The spatial neighbor index, event-queue compaction and serialization caches
# are what let the E5/E6-style scalability scenarios grow; these benchmarks
# pin down their wins and guard against regressions.

from repro.netsim import BROADCAST, Datagram, Node, Packet, WirelessMedium, manet_ip
from repro.netsim.mobility import place_random

#: Constant-density placement: ~1.6 neighbors per node at every N, so the
#: benchmark isolates neighbor *lookup* cost from per-delivery event cost.
_DENSITY_SIDE = {10: 1100.0, 50: 2475.0, 100: 3500.0}


def _build_broadcast_network(n_nodes, seed=3):
    sim = Simulator(seed=seed)
    medium = WirelessMedium(sim, tx_range=250.0)
    nodes = []
    for index in range(n_nodes):
        node = Node(sim, index, manet_ip(index))
        node.join_medium(medium)
        nodes.append(node)
    side = _DENSITY_SIDE[n_nodes]
    place_random(nodes, sim, side, side)
    return sim, medium, nodes


def _broadcast_round(sim, medium, nodes):
    """Every node broadcasts one 40-byte frame; run the sim to deliver all."""
    packet = Packet(nodes[0].ip, BROADCAST, Datagram(5060, 5060, b"x" * 40))
    for node in nodes:
        medium.broadcast(node, packet)
    sim.run(sim.now + 1.0)


@pytest.mark.parametrize("n_nodes", [10, 50, 100])
def test_broadcast_delivery_throughput(benchmark, n_nodes):
    sim, medium, nodes = _build_broadcast_network(n_nodes)
    benchmark(_broadcast_round, sim, medium, nodes)
    assert medium.stats.traffic_packets("total") >= n_nodes


def _churn_one_million():
    """The SIP transaction-timer workload (timers A/B/E-K are armed and
    cancelled on every message) at week-long-run volume."""
    sim = Simulator(seed=1)
    keepalive = sim.schedule(3600.0, lambda: None)
    for _ in range(1_000_000):
        sim.schedule(1.0, lambda: None).cancel()
    assert not keepalive.cancelled
    return sim


def test_cancelled_timer_churn_heap(benchmark):
    """1M scheduled-then-cancelled timers: compaction hysteresis must hold.

    Before the ``COMPACT_MIN`` floor, the ``tombstones > live`` trigger
    re-fired on nearly every cancellation around a lone keepalive — an
    O(N) sweep per cancel, the 0.5 ops/s pathology in BENCH_2026-08-06.
    With the floor each sweep retires ``COMPACT_MIN`` tombstones, so the
    sweep count is bounded by churn/COMPACT_MIN (amortized O(1)/cancel)
    and memory stays bounded.
    """
    sim = benchmark.pedantic(_churn_one_million, rounds=1, iterations=1)
    assert sim.pending_events == 1
    assert sim.queue_size <= Simulator.COMPACT_MIN
    assert 0 < sim.compactions <= 1_000_000 // Simulator.COMPACT_MIN + 1
