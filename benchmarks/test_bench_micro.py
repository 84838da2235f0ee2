"""Micro-benchmarks: raw throughput of the performance-critical paths.

Not a paper artifact; these keep the implementation honest (the simulator,
parsers and codecs are the inner loops of every experiment above).
"""

import pytest

from repro.netsim import Simulator
from repro.routing import (
    LINK_MPR,
    LINK_SYM,
    OLSR_HELLO,
    OLSR_SLP,
    OLSR_TC,
    HelloBody,
    OlsrMessage,
    Rreq,
    TcBody,
    decode_aodv,
    decode_olsr_packet,
    encode_aodv,
    encode_hello_body,
    encode_olsr_packet,
    encode_tc_body,
)
from repro.rtp import RtpPacket, decode_rtp
from repro.sip import CSeq, NameAddr, SipUri, Via, parse_message
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
    # The request-URI parse inside is a cache hit after the first round, as
    # it is in real traffic, where every hop of a call re-reads the same URI.
    message = benchmark(parse_message, INVITE_WIRE)
    assert message.method == "INVITE"


# The typed-header parsers are memoized; these time the parse itself through
# the undecorated functions, and the cache-hit one a typed read of a message.
_VIA = "SIP/2.0/UDP 192.168.0.1:5070;branch=z9hG4bK-77;rport"
_NAME_ADDR = '"Alice" <sip:alice@voicehoc.ch>;tag=a1'


@pytest.mark.parametrize(
    ("parse", "text"),
    [
        (Via.parse, _VIA),
        (CSeq.parse, "1 INVITE"),
        (NameAddr.parse, _NAME_ADDR),
        (SipUri.parse, "sip:bob@192.168.0.7:5060;lr"),
    ],
    ids=["via", "cseq", "name_addr", "uri"],
)
def test_sip_header_parse_throughput(benchmark, parse, text):
    value = benchmark(parse.__wrapped__, text)
    assert value == parse(text)


def test_sip_header_cache_hit_throughput(benchmark):
    """A proxy or UA reading the top Via of a message it already checked."""
    message = parse_message(INVITE_WIRE)
    expected = message.top_via
    assert benchmark(lambda: message.top_via) is expected


_RREQ_WIRE = encode_aodv(Rreq(rreq_id=1, dest_ip="192.168.0.9", dest_seq=1,
                              orig_ip="192.168.0.1", orig_seq=2))
_SRVREG = SrvReg(xid=1, entry=UrlEntry(
    url="service:siphoc-sip://192.168.0.5:5060", lifetime=120,
    attributes="(user=sip:bob@voicehoc.ch)"))

# The datagram decoders are memoized; the codec benchmarks time the parse
# itself through the undecorated function, the cache-hit one the lookup.


def test_aodv_codec_throughput(benchmark):
    message, _ = benchmark(decode_aodv.__wrapped__, _RREQ_WIRE)
    assert message.dest_ip == "192.168.0.9"


def test_slp_codec_throughput(benchmark):
    decoded = benchmark(decode_slp.__wrapped__, encode_slp(_SRVREG))
    assert decoded == _SRVREG


_OLSR_WIRE = encode_olsr_packet(7, (
    OlsrMessage(msg_type=OLSR_HELLO, orig_ip="192.168.0.1", seq=1, ttl=1,
                body=encode_hello_body(HelloBody(links={
                    LINK_SYM: ["192.168.0.2", "192.168.0.8"], LINK_MPR: ["192.168.0.3"]}))),
    OlsrMessage(msg_type=OLSR_TC, orig_ip="192.168.0.9", seq=2, vtime=15.0,
                body=encode_tc_body(TcBody(ansn=3, neighbors=["192.168.0.1", "192.168.0.4"]))),
    OlsrMessage(msg_type=OLSR_SLP, orig_ip="192.168.0.5", seq=3, vtime=60.0,
                body=encode_slp(_SRVREG)),
))


def _olsr_round_trip(wire):
    packet_seq, messages = decode_olsr_packet.__wrapped__(wire)
    return encode_olsr_packet(packet_seq, messages)


def test_olsr_codec_throughput(benchmark):
    """A HELLO + TC + type-130 packet, decoded by a receiver and re-encoded to forward."""
    assert benchmark(_olsr_round_trip, _OLSR_WIRE) == _OLSR_WIRE


def test_aodv_decode_cache_hit_throughput(benchmark):
    """A neighbour decoding bytes another receiver already decoded."""
    copy = bytes(bytearray(_RREQ_WIRE))
    expected = decode_aodv(_RREQ_WIRE)
    assert benchmark(decode_aodv, copy) is expected


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
    O(N) sweep per cancel, which ran this benchmark at 0.5 ops/s.
    With the floor each sweep retires ``COMPACT_MIN`` tombstones, so the
    sweep count is bounded by churn/COMPACT_MIN (amortized O(1)/cancel)
    and memory stays bounded.
    """
    sim = benchmark.pedantic(_churn_one_million, rounds=1, iterations=1)
    assert sim.pending_events == 1
    assert sim.queue_size <= Simulator.COMPACT_MIN
    assert 0 < sim.compactions <= 1_000_000 // Simulator.COMPACT_MIN + 1


# -- the per-packet voice path ------------------------------------------------
#
# Every 20 ms voice frame of every call pays these: the RFC 2198 codec at both
# ends, and one send/relay/receive pass per wireless hop.

from repro.netsim import StaticRouter, place_chain
from repro.rtp import G711, decode_red, encode_red, make_voice_payload

_FRAME = make_voice_payload(G711.frame_bytes, 0.0)
#: Depth-2 redundancy: two secondaries (40 and 20 ms old), then the primary.
_RED_BLOCKS = [
    (G711.payload_type, 2 * G711.timestamp_increment, _FRAME),
    (G711.payload_type, G711.timestamp_increment, _FRAME),
    (G711.payload_type, 0, _FRAME),
]


def _red_round_trip(blocks):
    return decode_red(encode_red(blocks))


def test_red_codec_throughput(benchmark):
    """One depth-2 G.711 RED payload, encoded by the sender, decoded by the receiver."""
    assert benchmark(_red_round_trip, _RED_BLOCKS) == _RED_BLOCKS


_HOP_FRAMES = 200


def _build_static_chain(n_nodes=3, seed=5):
    sim = Simulator(seed=seed)
    medium = WirelessMedium(sim, tx_range=150.0)
    nodes = [Node(sim, index, manet_ip(index)) for index in range(n_nodes)]
    for node in nodes:
        node.join_medium(medium)
    place_chain(nodes, 100.0)
    for index, node in enumerate(nodes):
        router = StaticRouter(node)
        node.set_router(router)
        for other_index, other in enumerate(nodes):
            if other_index != index:
                step = 1 if other_index > index else -1
                router.add_route(other.ip, nodes[index + step].ip)
    received = []
    nodes[-1].bind(16384, lambda data, src, sport: received.append(data))
    return sim, nodes, received


def _send_frames(sim, nodes):
    """``_HOP_FRAMES`` RTP-sized datagrams end to end: send, relay, receive."""
    source, sink = nodes[0], nodes[-1]
    data = bytes(12) + _FRAME
    for _ in range(_HOP_FRAMES):
        source.send_udp(sink.ip, 16384, 16384, data)
    sim.run(sim.now + 1.0)


def test_unicast_hop_throughput(benchmark):
    """Voice frames over a static 3-node chain, one relay hop in the middle."""
    sim, nodes, received = _build_static_chain()
    benchmark(_send_frames, sim, nodes)
    assert len(received) >= _HOP_FRAMES
    assert len(received) % _HOP_FRAMES == 0  # a clean channel loses nothing


from repro.rtp import AdaptivePlayoutPolicy, RtpSession

_VOICE_ROUNDS = 2000


class _KeepLastSocket:
    """Stands in for a session's UDP socket: keeps the last datagram, sends nothing."""

    last = b""

    def send(self, dst_ip, dport, data):
        self.last = data

    def close(self):
        pass


@pytest.mark.parametrize("case", ["send", "receive"])
def test_voice_frame_throughput(benchmark, case):
    """One RED-2 G.711 frame, as media_fade's calls carry them.

    ``send``: ``RtpSession._send_frame`` packs it. ``receive``:
    ``RtpSession._on_datagram`` reads it with adaptive playout; both
    secondaries repeat frames that already arrived, as on a clean hop. The
    sender's socket keeps what it is given, so neither case crosses the
    network. Between rounds, and untimed, the clock moves one frame
    interval on, and the ``receive`` case has the sender pack the next
    frame.
    """
    sim = Simulator(seed=3)
    alice, bob = Node(sim, 0, manet_ip(0)), Node(sim, 1, manet_ip(1))
    sessions = [
        RtpSession(
            node, 16384, remote=(peer.ip, 16384), redundancy=2,
            jitter_policy=AdaptivePlayoutPolicy(),
        )
        for node, peer in ((alice, bob), (bob, alice))
    ]
    sender, receiver = sessions
    socket = sender._socket = _KeepLastSocket()
    for _ in range(3):  # fill the redundancy history; the receiver sees it all
        sender._send_frame()
        receiver._on_datagram(socket.last, alice.ip, 16384)
        sim.run(sim.now + G711.frame_interval)

    received = [3]

    def next_frame():
        sim.run(sim.now + G711.frame_interval)
        if case == "send":
            return (), {}
        sender._send_frame()
        received[0] += 1
        return (socket.last, alice.ip, 16384), {}

    target = sender._send_frame if case == "send" else receiver._on_datagram
    benchmark.pedantic(target, setup=next_frame, rounds=_VOICE_ROUNDS)
    assert len(socket.last) == 12 + 2 * 4 + 1 + 3 * G711.frame_bytes
    stats = receiver.jitter_buffer.stats
    assert stats.received == stats.played == received[0]
    assert stats.recovered == bob.stats.count("rtp.bad_packets") == 0


# -- the OLSR control plane ---------------------------------------------------
#
# Every node of an OLSR mesh receives its neighbours' HELLOs every 2 s and the
# flooded TCs every 5 s, whether or not anyone is calling; the route table is
# read on every forwarded packet.

from repro.netsim import PacketCapture
from repro.routing import Olsr

_GRID_SIDE = 7


def _converged_grid():
    """The olsr_mesh grid (90 m spacing, 140 m range) after 20 s of OLSR."""
    sim = Simulator(seed=1)
    medium = WirelessMedium(sim, tx_range=140.0)
    daemons = []
    for index in range(_GRID_SIDE * _GRID_SIDE):
        position = ((index % _GRID_SIDE) * 90.0, (index // _GRID_SIDE) * 90.0)
        node = Node(sim, index, manet_ip(index), position=position)
        node.join_medium(medium)
        daemons.append(Olsr(node).start())
    sim.run(20.0)
    return medium, daemons


def _latest_hello(medium, sender):
    """The HELLO ``sender`` would send now, as its neighbours decode it."""
    capture = PacketCapture(port_filter={Olsr.port})
    medium.add_sniffer(capture.on_frame)
    sender._send_hello()
    _, (message,) = decode_olsr_packet(capture.frames[-1].packet.data)
    return message


def _hello_then_route(daemon, hello, neighbor_ip, destination):
    daemon._process_hello(hello, neighbor_ip)
    return daemon.route_to(destination)


@pytest.mark.parametrize("case", ["unchanged_hello", "forced_rebuild"])
def test_olsr_route_table_throughput(benchmark, case):
    """A corner node of the converged 7x7 grid looks up the far corner.

    ``unchanged_hello``: a neighbour's HELLO that changes no link state, then
    ``route_to``, as on most receptions in a converged mesh.
    ``forced_rebuild``: ``recompute_routes()``, the full graph build and BFS.
    """
    medium, daemons = _converged_grid()
    corner, neighbor, far = daemons[0], daemons[1], daemons[-1].node.ip
    if case == "unchanged_hello":
        hello = _latest_hello(medium, neighbor)
        route = benchmark(_hello_then_route, corner, hello, neighbor.node.ip, far)
    else:
        benchmark(corner.recompute_routes)
        route = corner.route_to(far)
    assert route.hop_count == _GRID_SIDE - 1  # diagonal steps (127 m) are in range


# -- AODV flood reception -----------------------------------------------------
#
# SIPHoc lookups ride AODV route discoveries, so every neighbour of a flood
# passes each RREQ copy through the SLP INPUT hook and then the AODV daemon.
# Most copies a node receives belong to a flood it has already handled.

import itertools

from repro.core import ManetSlp, make_handler, query_extension
from repro.routing import SLP_ANYCAST, Aodv
from repro.routing.messages import RREQ_FLAG_DEST_ONLY, RREQ_FLAG_UNKNOWN_SEQ
from repro.slp import SrvRqst

_FLOOD_ROUNDS = 2000


def _converged_aodv_chain():
    """Three AODV nodes with MANET SLP, 100 m apart, routed end to end."""
    sim = Simulator(seed=7)
    medium = WirelessMedium(sim, tx_range=150.0)
    nodes = []
    for index in range(3):
        node = Node(sim, index, manet_ip(index))
        node.join_medium(medium)
        ManetSlp(node, make_handler(Aodv(node).start())).start()
        nodes.append(node)
    place_chain(nodes, 100.0)
    nodes[0].router.discover(nodes[2].ip)
    sim.run(2.0)
    return sim, nodes


def _lookup_copy(origin, rreq_id):
    """One copy of ``origin``'s SLP lookup flood, as its neighbours receive it."""
    request = SrvRqst(
        xid=rreq_id & 0xFFFF,
        service_type="siphoc-sip",
        predicate="(user=sip:bob@voicehoc.ch)",
        requester=origin.ip,
    )
    rreq = Rreq(
        rreq_id=rreq_id,
        dest_ip=SLP_ANYCAST,
        dest_seq=0,
        orig_ip=origin.ip,
        orig_seq=rreq_id,
        flags=RREQ_FLAG_DEST_ONLY | RREQ_FLAG_UNKNOWN_SEQ,
    )
    data = encode_aodv(rreq, [query_extension(request)])
    return Packet(origin.ip, BROADCAST, Datagram(Aodv.port, Aodv.port, data), Aodv.NET_DIAMETER)


@pytest.mark.parametrize("case", ["first", "duplicate"])
def test_aodv_flood_reception_throughput(benchmark, case):
    """The middle node of a converged chain receives one lookup RREQ copy.

    ``first``: a new flood, which the node forwards. ``duplicate``: a copy of
    a flood the node has already handled. Between rounds, and untimed, the
    ``first`` case runs the simulator one second on, which delivers the
    forwarded copy; each duplicate-suppression table forgets a key one hold
    time after it arrived, so the tables stay at their live size.
    """
    sim, (origin, relay, _) = _converged_aodv_chain()
    rreq_ids = itertools.count(1 << 24)
    seen = _lookup_copy(origin, next(rreq_ids))
    relay.receive_wireless(seen, origin.ip)
    forwarded = relay.stats.count("aodv.rreq_forwarded")
    rounds = []

    def next_copy():
        rounds.append(case)
        if case == "duplicate":
            return (seen, origin.ip), {}
        sim.run(sim.now + 1.0)
        return (_lookup_copy(origin, next(rreq_ids)), origin.ip), {}

    benchmark.pedantic(relay.receive_wireless, setup=next_copy, rounds=_FLOOD_ROUNDS)
    new_forwards = relay.stats.count("aodv.rreq_forwarded") - forwarded
    assert new_forwards == (len(rounds) if case == "first" else 0)


# -- OLSR flood reception -----------------------------------------------------
#
# Under OLSR the SLP messages (type 130) ride the MPR backbone: every
# neighbour of a relay passes each copy through the SLP INPUT hook and then
# the OLSR daemon. Most copies a node receives repeat a message it has
# already handled.


def _converged_olsr_chain():
    """Three OLSR nodes with MANET SLP, 100 m apart, with their MPRs selected."""
    sim = Simulator(seed=7)
    medium = WirelessMedium(sim, tx_range=150.0)
    nodes = []
    for index in range(3):
        node = Node(sim, index, manet_ip(index))
        node.join_medium(medium)
        ManetSlp(node, make_handler(Olsr(node).start())).start()
        nodes.append(node)
    place_chain(nodes, 100.0)
    sim.run(10.0)
    return sim, nodes


def _slp_copy(origin, seq):
    """One copy of ``origin``'s flooded SLP lookup (an OLSR message of type 130)."""
    request = SrvRqst(
        xid=seq,
        service_type="siphoc-sip",
        predicate="(user=sip:bob@voicehoc.ch)",
        requester=origin.ip,
    )
    message = OlsrMessage(OLSR_SLP, origin.ip, seq, encode_slp(request), 10.0, 255)
    data = encode_olsr_packet(seq, (message,))
    return Packet(origin.ip, BROADCAST, Datagram(Olsr.port, Olsr.port, data), 1)


@pytest.mark.parametrize("case", ["first", "duplicate"])
def test_olsr_flood_reception_throughput(benchmark, case):
    """The middle node of a converged OLSR chain receives one SLP message copy.

    ``first``: a new message, which the node relays for its MPR selector.
    ``duplicate``: a copy of a message the node has already handled. Between
    rounds, and untimed, the ``first`` case runs the simulator one second
    on, which delivers the relayed copy; each duplicate table forgets a key
    one hold time after it arrived, so the tables stay at their live size.
    """
    sim, (origin, relay, _) = _converged_olsr_chain()
    seqs = itertools.count(1 << 15)  # clear of the origin's own message seqs
    seen = _slp_copy(origin, next(seqs))
    relay.receive_wireless(seen, origin.ip)
    forwarded = relay.stats.count("olsr.messages_forwarded")
    rounds = []

    def next_copy():
        rounds.append(case)
        if case == "duplicate":
            return (seen, origin.ip), {}
        sim.run(sim.now + 1.0)
        return (_slp_copy(origin, next(seqs)), origin.ip), {}

    benchmark.pedantic(relay.receive_wireless, setup=next_copy, rounds=_FLOOD_ROUNDS)
    new_forwards = relay.stats.count("olsr.messages_forwarded") - forwarded
    assert new_forwards == (len(rounds) if case == "first" else 0)


# -- duplicate-suppression churn ----------------------------------------------
#
# Every flooding component keeps a HoldTable of the keys it has handled: a
# steady stream of new keys, each looked up again as its copies arrive.

from repro.netsim import HoldTable

#: Clock step between new keys and the hold time, both exact binary
#: fractions, so exactly ``_CHURN_LIVE`` keys are live after every add.
_CHURN_STEP = 1 / 64
_CHURN_LIVE = 3000
_CHURN_KEYS = 10_000


def test_hold_table_churn_throughput(benchmark):
    """10,000 new keys per round, 1/64 s apart, each looked up by two copies.

    Before every round, and untimed, the table must hold exactly the keys
    of the last hold time: expired keys leave as new ones arrive.
    """
    table = HoldTable(_CHURN_LIVE * _CHURN_STEP)
    ticks = itertools.count()
    added = []

    def churn():
        holds, add = table.holds, table.add
        for _ in range(_CHURN_KEYS):
            tick = next(ticks)
            now = tick * _CHURN_STEP
            if not holds(tick, now):
                add(tick, now)
            holds(tick, now)
            holds(tick - 1, now)
        added.append(_CHURN_KEYS)

    def check_live_size():
        assert len(table) == min(sum(added), _CHURN_LIVE)
        return (), {}

    benchmark.pedantic(churn, setup=check_live_size, rounds=20)
    check_live_size()


# -- SLP matching --------------------------------------------------------------
#
# Every node a lookup flood reaches matches the query against its local
# registration, and every advert copy it hears is checked against the
# lookups it has pending. A run asks a few dozen distinct predicates, one
# per callee, over and over.

from repro.slp import SERVICE_SIP_CONTACT, UrlEntry


def _slp_node_with_pending_lookup():
    """A node whose proxy registered alice and which is looking up bob."""
    sim = Simulator(seed=7)
    node = Node(sim, 0, manet_ip(0))
    node.join_medium(WirelessMedium(sim))
    slp = ManetSlp(node, make_handler(Aodv(node).start())).start()
    slp.register(
        f"service:{SERVICE_SIP_CONTACT}://{node.ip}:5060", {"user": "sip:alice@voicehoc.ch"}
    )
    slp.find_services(SERVICE_SIP_CONTACT, "(user=sip:bob@voicehoc.ch)")
    return sim, slp


@pytest.mark.parametrize("case", ["lookup", "advert"])
def test_slp_match_throughput(benchmark, case):
    """``lookup``: one flooded query for bob against the local registration.
    ``advert``: one repeated advert for carol while the bob lookup is pending."""
    sim, slp = _slp_node_with_pending_lookup()
    if case == "lookup":
        matches = benchmark(slp.local_matches, SERVICE_SIP_CONTACT, "(user=sip:bob@voicehoc.ch)")
        assert matches == []
        return
    advert = UrlEntry(
        url=f"service:{SERVICE_SIP_CONTACT}://{manet_ip(9)}:5060",
        lifetime=120,
        attributes="(user=sip:carol@voicehoc.ch)",
    ).to_service_entry(sim.now, origin=manet_ip(9))
    benchmark(slp.on_remote_entry, advert)
    assert slp.cache_size == 1
    assert slp.lookup_cached(SERVICE_SIP_CONTACT, "(user=sip:bob@voicehoc.ch)") == []


# -- one SIP call's messages and transactions ---------------------------------
#
# call_storm's SIP path: every element a call crosses parses the message it
# receives, serializes the one it sends and runs a transaction per request.
# The two messages were captured off a 3-hop AODV chain call (the end-to-end
# call_storm workload, seed 1): the INVITE as the callee receives it, after
# two proxies, and the 200 OK as the caller receives it.

from repro.sip import SipRequest, SipResponse, SipTransport, TransactionLayer

_SDP_OFFER = (
    b"v=0\r\no=- 1 1 IN IP4 192.168.0.1\r\ns=-\r\nc=IN IP4 192.168.0.1\r\nt=0 0\r\n"
    b"m=audio 16384 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n"
)
_SDP_ANSWER = (
    b"v=0\r\no=- 2 2 IN IP4 192.168.0.4\r\ns=-\r\nc=IN IP4 192.168.0.4\r\nt=0 0\r\n"
    b"m=audio 16384 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n"
)
_CAPTURED = {
    "invite": (
        b"INVITE sip:user3@192.168.0.4:5070 SIP/2.0\r\n"
        b"From: <sip:user0@voicehoc.ch>;tag=tag000003\r\n"
        b"To: <sip:user3@voicehoc.ch>\r\n"
        b"Call-ID: cid00000003@192.168.0.1\r\n"
        b"CSeq: 1 INVITE\r\n"
        b"Max-Forwards: 68\r\n"
        b"Contact: <sip:user0@192.168.0.1:5070>\r\n"
        b"Content-Type: application/sdp\r\n"
        b"Via: SIP/2.0/UDP 192.168.0.4:5060;branch=z9hG4bK-00000005\r\n"
        b"Via: SIP/2.0/UDP 192.168.0.1:5060;branch=z9hG4bK-00000004\r\n"
        b"Via: SIP/2.0/UDP 192.168.0.1:5070;branch=z9hG4bK-00000003\r\n"
        b"Content-Length: 114\r\n"
        b"Record-Route: <sip:192.168.0.4:5060;lr>\r\n"
        b"Record-Route: <sip:192.168.0.1:5060;lr>\r\n\r\n" + _SDP_OFFER
    ),
    "ok": (
        b"SIP/2.0 200 OK\r\n"
        b"Via: SIP/2.0/UDP 192.168.0.1:5070;branch=z9hG4bK-00000003\r\n"
        b"From: <sip:user0@voicehoc.ch>;tag=tag000003\r\n"
        b"Call-ID: cid00000003@192.168.0.1\r\n"
        b"CSeq: 1 INVITE\r\n"
        b"Record-Route: <sip:192.168.0.4:5060;lr>\r\n"
        b"Record-Route: <sip:192.168.0.1:5060;lr>\r\n"
        b"To: <sip:user3@voicehoc.ch>;tag=tag000004\r\n"
        b"Contact: <sip:user3@192.168.0.4:5070>\r\n"
        b"Content-Type: application/sdp\r\n"
        b"Content-Length: 114\r\n\r\n" + _SDP_ANSWER
    ),
}
_SIP_ROUNDS = 2000


@pytest.mark.parametrize("message", ["invite", "ok"])
def test_captured_sip_parse_throughput(benchmark, message):
    """A receiver's parse and header check; each line repeats, as on every hop."""
    wire = _CAPTURED[message]

    def receive():
        parsed = parse_message(wire)
        parsed.check_headers()
        return parsed

    parsed = benchmark(receive)
    assert isinstance(parsed, SipRequest if message == "invite" else SipResponse)
    assert parsed.serialize() == wire


@pytest.mark.parametrize("message", ["invite", "ok"])
def test_captured_sip_serialize_throughput(benchmark, message):
    """The first serialize of a freshly parsed message."""
    wire = _CAPTURED[message]

    def fresh():
        return (parse_message(wire),), {}

    out = benchmark.pedantic(lambda parsed: parsed.serialize(), setup=fresh, rounds=_SIP_ROUNDS)
    assert out == wire


def test_client_transaction_cycle_throughput(benchmark):
    """One non-INVITE client transaction: start, final response, terminate.

    Starting sends the request (a lone node drops it for want of a route)
    and arms Timers E and F; the 200 arms Timer K; terminate cancels all
    three and leaves the layer empty.
    """
    sim = Simulator(seed=1)
    layer = TransactionLayer(SipTransport(Node(sim, 0, manet_ip(0)), 5060), sim)
    destination = ("192.168.0.2", 5060)
    wire = (
        b"OPTIONS sip:bob@192.168.0.2 SIP/2.0\r\n"
        b"From: <sip:alice@voicehoc.ch>;tag=a1\r\n"
        b"To: <sip:bob@voicehoc.ch>\r\n"
        b"Call-ID: cid-bench@192.168.0.1\r\n"
        b"CSeq: 1 OPTIONS\r\n"
        b"Max-Forwards: 70\r\n\r\n"
    )
    responses = []

    def cycle():
        request = parse_message(wire)
        txn = layer.send_request(request, destination, responses.append)
        txn.receive_response(request.create_response(200))
        txn.terminate()

    benchmark(cycle)
    assert responses and all(response.status == 200 for response in responses)
    assert layer.active_transactions == 0
    assert sim.pending_events == 0
