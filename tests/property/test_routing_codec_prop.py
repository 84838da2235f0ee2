"""Property-based tests for routing/SLP wire codecs (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.routing import (
    Extension,
    HelloBody,
    OlsrMessage,
    Rerr,
    Rrep,
    Rreq,
    TcBody,
    decode_aodv,
    decode_hello_body,
    decode_olsr_packet,
    decode_tc_body,
    encode_aodv,
    encode_hello_body,
    encode_olsr_packet,
    encode_tc_body,
)
from repro.slp import (
    SrvAck,
    SrvDeReg,
    SrvReg,
    SrvRply,
    SrvRqst,
    UrlEntry,
    decode_slp,
    encode_slp,
)

ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(
    lambda v: ".".join(str((v >> shift) & 0xFF) for shift in (24, 16, 8, 0))
)
u8 = st.integers(min_value=0, max_value=255)
u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

rreqs = st.builds(
    Rreq, rreq_id=u32, dest_ip=ips, dest_seq=u32, orig_ip=ips, orig_seq=u32,
    hop_count=u8, flags=st.integers(min_value=0, max_value=3),
)
rreps = st.builds(
    Rrep, dest_ip=ips, dest_seq=u32, orig_ip=ips, lifetime_ms=u32, hop_count=u8
)
rerrs = st.builds(
    Rerr, unreachable=st.lists(st.tuples(ips, u32), max_size=20).map(tuple)
)
extensions = st.lists(
    st.builds(Extension, ext_type=u8, body=st.binary(max_size=100)), max_size=4
).map(tuple)


class TestAodvProperties:
    @settings(max_examples=80)
    @given(st.one_of(rreqs, rreps, rerrs), extensions)
    def test_round_trip(self, message, exts):
        decoded, decoded_exts = decode_aodv(encode_aodv(message, exts))
        assert decoded == message
        assert decoded_exts == exts

    @given(st.binary(max_size=120))
    def test_decoder_never_crashes(self, data):
        try:
            decode_aodv(data)
        except CodecError:
            pass


text = st.text(max_size=30)
url_entries = st.builds(
    UrlEntry,
    url=st.just("service:siphoc-sip://192.168.0.1:5060"),
    lifetime=u16,
    attributes=text,
)
slp_messages = st.one_of(
    st.builds(SrvRqst, xid=u16, service_type=text, predicate=text, requester=text),
    st.builds(SrvRply, xid=u16, entries=st.lists(url_entries, max_size=5).map(tuple),
              error=u16),
    st.builds(SrvReg, xid=u16, entry=url_entries),
    st.builds(SrvDeReg, xid=u16, url=text),
    st.builds(SrvAck, xid=u16, error=u16),
)


class TestSlpProperties:
    @settings(max_examples=80)
    @given(slp_messages)
    def test_round_trip(self, message):
        assert decode_slp(encode_slp(message)) == message

    @given(st.binary(max_size=120))
    def test_decoder_never_crashes(self, data):
        try:
            decode_slp(data)
        except CodecError:
            pass


olsr_messages = st.builds(
    OlsrMessage,
    msg_type=u8,
    orig_ip=ips,
    seq=u16,
    body=st.binary(max_size=60),
    vtime=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    ttl=u8,
    hops=u8,
)


class TestOlsrProperties:
    @settings(max_examples=80)
    @given(u16, st.lists(olsr_messages, max_size=5))
    def test_packet_round_trip_preserves_payloads(self, seq, messages):
        decoded_seq, decoded = decode_olsr_packet(encode_olsr_packet(seq, messages))
        assert decoded_seq == seq
        assert [m.body for m in decoded] == [m.body for m in messages]
        assert [m.orig_ip for m in decoded] == [m.orig_ip for m in messages]
        assert [m.ttl for m in decoded] == [m.ttl for m in messages]

    @settings(max_examples=60)
    @given(
        st.dictionaries(
            st.sampled_from([1, 2, 3]), st.lists(ips, max_size=6, unique=True), max_size=3
        ),
        st.integers(min_value=0, max_value=7),
    )
    def test_hello_body_round_trip(self, links, willingness):
        body = HelloBody(links=links, willingness=willingness)
        decoded = decode_hello_body(encode_hello_body(body))
        assert {k: v for k, v in decoded.links.items() if v} == {
            k: tuple(v) for k, v in links.items() if v
        }

    @settings(max_examples=60)
    @given(u16, st.lists(ips, max_size=10))
    def test_tc_body_round_trip(self, ansn, neighbors):
        decoded = decode_tc_body(encode_tc_body(TcBody(ansn=ansn, neighbors=neighbors)))
        assert decoded.ansn == ansn
        assert decoded.neighbors == tuple(neighbors)

    @given(st.binary(max_size=120))
    def test_decoder_never_crashes(self, data):
        try:
            decode_olsr_packet(data)
        except CodecError:
            pass
