"""Unit tests for the routing handler plugins and piggyback extensions."""

import pytest

from repro.core import (
    EXT_SLP_ADVERT,
    ManetSlp,
    advert_extension,
    decode_extension,
    is_slp_extension,
    make_handler,
    query_extension,
    reply_extension,
)
from repro.core.handlers import (
    ADVERT_REDUNDANCY,
    PIGGYBACK_BUDGET,
    AodvHandler,
    OlsrHandler,
)
from repro.netsim import (
    BROADCAST,
    Datagram,
    Node,
    Packet,
    PacketCapture,
    Simulator,
    Stats,
    WirelessMedium,
    manet_ip,
    place_chain,
)
from repro.routing import (
    OLSR_SLP,
    Aodv,
    Olsr,
    OlsrMessage,
    Rrep,
    Rreq,
    decode_aodv,
    decode_olsr_packet,
    encode_aodv,
    encode_olsr_packet,
)
from repro.slp import SrvReg, SrvRply, SrvRqst, UrlEntry, decode_slp, encode_slp
from repro.trace import TraceCollector


class TestExtensionCodec:
    def test_advert_round_trip(self):
        reg = SrvReg(xid=1, entry=UrlEntry(url="service:x://h:1", lifetime=60, attributes=""))
        ext = advert_extension(reg)
        assert ext.ext_type == EXT_SLP_ADVERT
        assert is_slp_extension(ext)
        assert decode_extension(ext) == reg

    def test_query_and_reply(self):
        query = SrvRqst(xid=2, service_type="t", predicate="", requester="1.2.3.4")
        reply = SrvRply(xid=2, entries=())
        assert decode_extension(query_extension(query)) == query
        assert decode_extension(reply_extension(reply)) == reply

    def test_foreign_extension_returns_none(self):
        from repro.routing import Extension

        assert decode_extension(Extension(0x42, b"whatever")) is None
        assert not is_slp_extension(Extension(0x42, b""))

    def test_corrupt_body_returns_none(self):
        from repro.routing import Extension

        assert decode_extension(Extension(EXT_SLP_ADVERT, b"\x00\x01garbage")) is None

    def test_non_utf8_body_returns_none(self):
        from repro.routing import Extension

        # A well-formed SrvDeReg whose two-byte URL is not UTF-8.
        body = b"\x02\x04\x00\x01\x00\x02\xff\xfe"
        assert decode_extension(Extension(EXT_SLP_ADVERT, body)) is None


def build(protocol, n=3, seed=31):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
    nodes, daemons, slps = [], [], []
    for index in range(n):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        daemon = (Aodv if protocol == "aodv" else Olsr)(node)
        daemon.start()
        slps.append(ManetSlp(node, make_handler(daemon)).start())
        nodes.append(node)
        daemons.append(daemon)
    place_chain(nodes, 100.0)
    return sim, stats, medium, nodes, daemons, slps


class TestMakeHandler:
    def test_dispatch_by_daemon_type(self, sim):
        stats = Stats()
        medium = WirelessMedium(sim, stats=stats)
        node = Node(sim, 0, manet_ip(0), stats=stats)
        node.join_medium(medium)
        assert isinstance(make_handler(Aodv(node)), AodvHandler)
        node2 = Node(sim, 1, manet_ip(1), stats=stats)
        node2.join_medium(medium)
        assert isinstance(make_handler(Olsr(node2)), OlsrHandler)

    def test_unknown_daemon_rejected(self):
        with pytest.raises(TypeError):
            make_handler(object())


class TestAodvPiggybacking:
    def test_adverts_attached_to_outgoing_rreqs(self):
        sim, stats, medium, nodes, daemons, slps = build("aodv")
        capture = PacketCapture(port_filter={Aodv.port})
        medium.add_sniffer(capture.on_frame)
        slps[0].register(f"service:siphoc-sip://{nodes[0].ip}:5060", {"user": "sip:a@h"})
        daemons[0].discover(nodes[2].ip)  # emits an RREQ that carries the advert
        sim.run(3.0)
        carried = 0
        for frame in capture.frames:
            _, extensions = decode_aodv(frame.packet.data)
            carried += sum(1 for ext in extensions if ext.ext_type == EXT_SLP_ADVERT)
        assert carried >= 1

    def test_piggyback_budget_respected(self):
        sim = Simulator(seed=5)
        stats = Stats()
        medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
        nodes = []
        slps = []
        daemons = []
        for index in range(2):
            node = Node(sim, index, manet_ip(index), stats=stats)
            node.join_medium(medium)
            daemon = Aodv(node)
            daemon.start()
            slps.append(ManetSlp(node, make_handler(daemon)).start())
            nodes.append(node)
            daemons.append(daemon)
        place_chain(nodes, 100.0)
        capture = PacketCapture(port_filter={Aodv.port})
        medium.add_sniffer(capture.on_frame)
        for index in range(6):
            slps[0].register(
                f"service:siphoc-sip://{nodes[0].ip}:{5060 + index}", {"user": f"sip:u{index}@h"}
            )
        daemons[0].discover(nodes[1].ip)
        sim.run(3.0)
        per_frame = []
        for frame in capture.frames:
            _, extensions = decode_aodv(frame.packet.data)
            per_frame.append(sum(1 for e in extensions if e.ext_type == EXT_SLP_ADVERT))
        assert max(per_frame) == PIGGYBACK_BUDGET

    def test_duplicate_queries_answered_once(self):
        sim, stats, medium, nodes, daemons, slps = build("aodv")
        slps[2].register(f"service:siphoc-sip://{nodes[2].ip}:5060", {"user": "sip:bob@h"})
        sim.run(0.2)
        results = []
        slps[0].find_services("siphoc-sip", "(user=sip:bob@h)", callback=results.append)
        sim.run(5.0)
        assert stats.count("manetslp.replies_sent") == 1

    def test_advert_redundancy_consumed(self):
        sim, stats, medium, nodes, daemons, slps = build("aodv", n=2)
        handler = slps[0].handler
        slps[0].register(f"service:siphoc-sip://{nodes[0].ip}:5060", {"user": "sip:a@h"})
        assert handler.pending_count() == 1
        # Default redundancy is 2: two carrier packets drain the queue.
        daemons[0].discover(nodes[1].ip)
        sim.run(1.0)
        daemons[0].discover("192.168.0.77")
        sim.run(8.0)
        assert handler.pending_count() == 0


NEIGHBOR = "192.168.0.9"
GOOD_URL = f"service:siphoc-sip://{NEIGHBOR}:5060"


def receive_aodv(node, message, extension, dst):
    """Hand ``node`` one AODV packet from NEIGHBOR, as the medium would."""
    data = encode_aodv(message, [extension])
    node.receive_wireless(Packet(NEIGHBOR, dst, Datagram(Aodv.port, Aodv.port, data)), NEIGHBOR)


def cache_snapshot(slp):
    return {str(entry.url): entry for entry in slp.cached_services()}


class TestAodvInputHook:
    """Bad piggybacked adverts are counted or skipped at the INPUT hook."""

    def rreq(self, rreq_id):
        return Rreq(
            rreq_id=rreq_id, dest_ip="192.168.0.77", dest_seq=0, orig_ip=NEIGHBOR,
            orig_seq=rreq_id,
        )

    def test_srvreg_without_host_counts_a_bad_advert(self):
        sim, stats, medium, nodes, daemons, slps = build("aodv", n=1)
        good = SrvReg(xid=1, entry=UrlEntry(url=GOOD_URL, lifetime=60))
        receive_aodv(nodes[0], self.rreq(1), advert_extension(good), BROADCAST)
        before = cache_snapshot(slps[0])
        assert list(before) == [GOOD_URL]
        bad = SrvReg(xid=2, entry=UrlEntry(url="service:siphoc-sip://:5060", lifetime=60))
        receive_aodv(nodes[0], self.rreq(2), advert_extension(bad), BROADCAST)
        assert stats.count("manetslp.bad_adverts") == 1
        assert cache_snapshot(slps[0]) == before

    def test_other_errors_are_not_hidden_as_bad_adverts(self, monkeypatch):
        sim, stats, medium, nodes, daemons, slps = build("aodv", n=1)

        def broken(entry, now, origin):
            raise KeyError("a bug, not a bad advert")

        monkeypatch.setattr(UrlEntry, "to_service_entry", broken)
        good = SrvReg(xid=1, entry=UrlEntry(url=GOOD_URL, lifetime=60))
        with pytest.raises(KeyError):
            receive_aodv(nodes[0], self.rreq(1), advert_extension(good), BROADCAST)
        assert stats.count("manetslp.bad_adverts") == 0

    def test_deeply_nested_query_is_answered(self):
        sim, stats, medium, nodes, daemons, slps = build("aodv", n=1)
        slps[0].register(f"service:siphoc-sip://{nodes[0].ip}:5060", {"user": "sip:bob@h"})
        predicate = "(&" * 2000 + "(user=sip:bob@h)" + ")" * 2000
        query = SrvRqst(xid=5, service_type="siphoc-sip", predicate=predicate, requester=NEIGHBOR)
        receive_aodv(nodes[0], self.rreq(1), query_extension(query), BROADCAST)
        sim.run(1.0)
        assert stats.count("manetslp.replies_sent") == 1

    def test_srvrply_learns_only_its_good_entries(self):
        sim, stats, medium, nodes, daemons, slps = build("aodv", n=1)
        reply = SrvRply(
            xid=7,
            entries=(
                UrlEntry(url=f"service:siphoc-sip//{NEIGHBOR}:5061", lifetime=60),
                UrlEntry(url=GOOD_URL, lifetime=60, attributes="(user=sip:bob@h)"),
            ),
        )
        rrep = Rrep(
            dest_ip=NEIGHBOR, dest_seq=3, orig_ip=nodes[0].ip, lifetime_ms=60_000,
            hop_count=0,
        )
        receive_aodv(nodes[0], rrep, reply_extension(reply), nodes[0].ip)
        learned = cache_snapshot(slps[0])
        assert list(learned) == [GOOD_URL]
        assert learned[GOOD_URL].attributes == {"user": "sip:bob@h"}
        assert stats.count("manetslp.bad_adverts") == 0


class TestOlsrPiggybacking:
    def test_adverts_ride_hello_packets_as_type_130(self):
        sim, stats, medium, nodes, daemons, slps = build("olsr", n=2)
        sim.run(10.0)
        capture = PacketCapture(port_filter={Olsr.port})
        medium.add_sniffer(capture.on_frame)
        slps[0].register(f"service:siphoc-sip://{nodes[0].ip}:5060", {"user": "sip:a@h"})
        sim.run(14.0)
        slp_messages = []
        for frame in capture.frames:
            _, messages = decode_olsr_packet(frame.packet.data)
            slp_messages.extend(m for m in messages if m.msg_type == OLSR_SLP)
        assert slp_messages
        decoded = decode_slp(slp_messages[0].body)
        assert isinstance(decoded, SrvReg)

    def test_handler_dedupes_flooded_copies(self):
        sim, stats, medium, nodes, daemons, slps = build("olsr", n=3)
        sim.run(12.0)
        slps[0].register(f"service:siphoc-sip://{nodes[0].ip}:5060", {"user": "sip:a@h"})
        sim.run(30.0)
        # Entry learned despite many flooded copies; cache has exactly one.
        hits = slps[2].lookup_cached("siphoc-sip", "(user=sip:a@h)")
        assert len(hits) == 1


OTHER_NEIGHBOR = "192.168.0.10"


def learned_by_node(collector):
    """How many ``slp.entry_learned`` events each node emitted."""
    counts: dict[str, int] = {}
    for event in collector:
        if event.kind == "slp.entry_learned":
            counts[event.node] = counts.get(event.node, 0) + 1
    return counts


def receive_olsr(node, sender, messages):
    """Hand ``node`` one OLSR packet broadcast by ``sender``."""
    data = encode_olsr_packet(1, messages)
    node.receive_wireless(
        Packet(sender, BROADCAST, Datagram(Olsr.port, Olsr.port, data), 1), sender
    )


class TestEachSlpMessageHandledOnce:
    """A node handles each SLP message once, however many copies reach it."""

    def test_advert_on_two_rreq_copies_is_learned_once(self):
        sim, stats, medium, nodes, daemons, slps = build("aodv", n=1)
        collector = TraceCollector().attach(sim)
        advert = advert_extension(SrvReg(xid=1, entry=UrlEntry(url=GOOD_URL, lifetime=60)))
        rreq = Rreq(
            rreq_id=1, dest_ip="192.168.0.77", dest_seq=0, orig_ip="192.168.0.50",
            orig_seq=1, hop_count=1,
        )
        data = encode_aodv(rreq, [advert])
        for neighbor in (NEIGHBOR, OTHER_NEIGHBOR):
            packet = Packet(neighbor, BROADCAST, Datagram(Aodv.port, Aodv.port, data))
            nodes[0].receive_wireless(packet, neighbor)
            sim.run(sim.now + 0.01)
        assert stats.count("manetslp.entries_learned") == 1
        assert learned_by_node(collector) == {nodes[0].ip: 1}
        assert list(cache_snapshot(slps[0])) == [GOOD_URL]

    def test_redundant_olsr_advert_is_learned_once_per_node(self):
        sim, stats, medium, nodes, daemons, slps = build("olsr", n=3)
        sim.run(10.0)
        collector = TraceCollector().attach(sim)
        slps[0].register(f"service:siphoc-sip://{nodes[0].ip}:5060", {"user": "sip:a@h"})
        sim.run(22.0)  # before the first refresh re-advertises under a new XID
        assert ADVERT_REDUNDANCY == 2
        assert stats.count("manetslp.adverts_piggybacked") == 2
        assert learned_by_node(collector) == {nodes[1].ip: 1, nodes[2].ip: 1}
        assert stats.count("manetslp.entries_learned") == 2

    def test_malformed_flooded_body_counts_once_per_node(self):
        sim, stats, medium, nodes, daemons, slps = build("olsr", n=1)
        bad = OlsrMessage(OLSR_SLP, "192.168.0.50", 7, b"\x00\x01garbage", 60.0, 250)
        for neighbor in (NEIGHBOR, OTHER_NEIGHBOR, NEIGHBOR):
            receive_olsr(nodes[0], neighbor, (bad,))
        assert stats.count("manetslp.bad_adverts") == 1
