"""Unit tests for AODV and OLSR wire codecs."""

import dataclasses

import pytest

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
from repro.routing.messages import RREQ_FLAG_DEST_ONLY, RREQ_FLAG_UNKNOWN_SEQ


class TestAodvCodec:
    def test_rreq_round_trip(self):
        rreq = Rreq(
            rreq_id=42,
            dest_ip="192.168.0.9",
            dest_seq=7,
            orig_ip="192.168.0.1",
            orig_seq=11,
            hop_count=3,
            flags=RREQ_FLAG_DEST_ONLY | RREQ_FLAG_UNKNOWN_SEQ,
        )
        decoded, extensions = decode_aodv(encode_aodv(rreq))
        assert decoded == rreq
        assert extensions == ()
        assert decoded.dest_only and decoded.unknown_seq

    def test_rreq_wire_size_is_rfc_24_bytes(self):
        rreq = Rreq(rreq_id=1, dest_ip="1.1.1.1", dest_seq=0, orig_ip="2.2.2.2", orig_seq=0)
        assert len(encode_aodv(rreq)) == 24

    def test_rrep_round_trip(self):
        rrep = Rrep(
            dest_ip="192.168.0.9",
            dest_seq=3,
            orig_ip="192.168.0.1",
            lifetime_ms=6000,
            hop_count=2,
        )
        decoded, _ = decode_aodv(encode_aodv(rrep))
        assert decoded == rrep
        assert not decoded.is_hello()

    def test_rrep_wire_size_is_rfc_20_bytes(self):
        rrep = Rrep(dest_ip="1.1.1.1", dest_seq=0, orig_ip="2.2.2.2", lifetime_ms=0)
        assert len(encode_aodv(rrep)) == 20

    def test_hello_detection(self):
        hello = Rrep(
            dest_ip="192.168.0.1", dest_seq=5, orig_ip="192.168.0.1",
            lifetime_ms=3000, hop_count=0,
        )
        decoded, _ = decode_aodv(encode_aodv(hello))
        assert decoded.is_hello()

    def test_rerr_round_trip(self):
        rerr = Rerr(unreachable=(("192.168.0.5", 9), ("192.168.0.6", 10)))
        decoded, _ = decode_aodv(encode_aodv(rerr))
        assert decoded == rerr

    def test_rerr_too_many_destinations(self):
        rerr = Rerr(unreachable=tuple((f"10.0.{i // 250}.{i % 250}", i) for i in range(300)))
        with pytest.raises(CodecError):
            encode_aodv(rerr)

    def test_extensions_round_trip(self):
        rreq = Rreq(rreq_id=1, dest_ip="1.1.1.1", dest_seq=0, orig_ip="2.2.2.2", orig_seq=0)
        extensions = (Extension(0x11, b"advert-body"), Extension(0x12, b""))
        decoded, got = decode_aodv(encode_aodv(rreq, extensions))
        assert got == extensions

    def test_unknown_type_rejected(self):
        with pytest.raises(CodecError):
            decode_aodv(b"\x63" + b"\x00" * 23)

    def test_truncated_rejected(self):
        rreq = Rreq(rreq_id=1, dest_ip="1.1.1.1", dest_seq=0, orig_ip="2.2.2.2", orig_seq=0)
        with pytest.raises(CodecError):
            decode_aodv(encode_aodv(rreq)[:10])

    def test_extension_type_range(self):
        with pytest.raises(CodecError):
            Extension(300, b"")


class TestOlsrCodec:
    def test_hello_body_round_trip(self):
        body = HelloBody(
            links={2: ["192.168.0.2", "192.168.0.3"], 3: ["192.168.0.4"]},
            willingness=3,
        )
        decoded = decode_hello_body(encode_hello_body(body))
        assert decoded.links == body.links
        assert decoded.willingness == 3
        assert set(decoded.all_neighbors()) == {"192.168.0.2", "192.168.0.3", "192.168.0.4"}

    def test_tc_body_round_trip(self):
        body = TcBody(ansn=99, neighbors=["192.168.0.2", "192.168.0.7"])
        decoded = decode_tc_body(encode_tc_body(body))
        assert decoded == body

    def test_packet_with_multiple_messages(self):
        messages = [
            OlsrMessage(msg_type=1, orig_ip="192.168.0.1", seq=1, body=b"h", ttl=1),
            OlsrMessage(msg_type=2, orig_ip="192.168.0.1", seq=2, body=b"tc-body", ttl=255),
            OlsrMessage(msg_type=130, orig_ip="192.168.0.1", seq=3, body=b"slp!", ttl=255),
        ]
        packet_seq, decoded = decode_olsr_packet(encode_olsr_packet(17, messages))
        assert packet_seq == 17
        assert len(decoded) == 3
        for original, got in zip(messages, decoded):
            assert got.msg_type == original.msg_type
            assert got.orig_ip == original.orig_ip
            assert got.seq == original.seq
            assert got.body == original.body
            assert got.ttl == original.ttl

    def test_vtime_quantized_to_quarter_seconds(self):
        message = OlsrMessage(msg_type=1, orig_ip="1.1.1.1", seq=1, body=b"", vtime=6.1)
        _, (decoded,) = decode_olsr_packet(encode_olsr_packet(1, [message]))
        assert decoded.vtime == pytest.approx(6.0, abs=0.25)

    def test_length_mismatch_rejected(self):
        data = encode_olsr_packet(1, [])
        with pytest.raises(CodecError):
            decode_olsr_packet(data + b"extra")

    def test_duplicate_key(self):
        message = OlsrMessage(msg_type=2, orig_ip="10.0.0.1", seq=5, body=b"")
        assert message.key() == ("10.0.0.1", 5)

    def test_empty_packet_round_trip(self):
        packet_seq, messages = decode_olsr_packet(encode_olsr_packet(3, ()))
        assert packet_seq == 3
        assert messages == ()


def _copy(wire: bytes) -> bytes:
    """An equal but distinct bytes object, as a second receiver would hold."""
    copy = bytes(bytearray(wire))
    assert copy == wire and copy is not wire
    return copy


class TestSharedDecodes:
    """Decoders are memoized on content and return immutable results."""

    def test_aodv_decode_is_shared_between_equal_datagrams(self):
        rreq = Rreq(rreq_id=9, dest_ip="1.1.1.1", dest_seq=3, orig_ip="2.2.2.2", orig_seq=4)
        wire = encode_aodv(rreq, (Extension(0x11, b"advert"),))
        assert decode_aodv(wire) is decode_aodv(_copy(wire))

    def test_olsr_decode_is_shared_between_equal_packets(self):
        message = OlsrMessage(msg_type=130, orig_ip="10.0.0.1", seq=5, body=b"slp")
        wire = encode_olsr_packet(8, (message,))
        assert decode_olsr_packet(wire) is decode_olsr_packet(_copy(wire))

    @pytest.mark.parametrize(
        "message, field",
        [
            (Rreq(rreq_id=1, dest_ip="1.1.1.1", dest_seq=0, orig_ip="2.2.2.2", orig_seq=0),
             "hop_count"),
            (Rrep(dest_ip="1.1.1.1", dest_seq=1, orig_ip="2.2.2.2", lifetime_ms=10), "dest_seq"),
            (Rerr(unreachable=(("1.1.1.1", 2),)), "unreachable"),
        ],
    )
    def test_decoded_aodv_messages_are_frozen(self, message, field):
        decoded, _ = decode_aodv(encode_aodv(message))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(decoded, field, 0)

    def test_decoded_olsr_message_is_frozen(self):
        message = OlsrMessage(msg_type=2, orig_ip="10.0.0.1", seq=5, body=b"tc", ttl=9)
        _, (decoded,) = decode_olsr_packet(encode_olsr_packet(1, (message,)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            decoded.ttl = 8

    def test_decoded_sequences_are_tuples(self):
        rreq = Rreq(rreq_id=1, dest_ip="1.1.1.1", dest_seq=0, orig_ip="2.2.2.2", orig_seq=0)
        _, extensions = decode_aodv(encode_aodv(rreq, (Extension(0x12, b"q"),)))
        assert isinstance(extensions, tuple)
        rerr, _ = decode_aodv(encode_aodv(Rerr(unreachable=(("1.1.1.1", 2),))))
        assert isinstance(rerr.unreachable, tuple)
        message = OlsrMessage(msg_type=2, orig_ip="10.0.0.1", seq=5, body=b"tc")
        _, messages = decode_olsr_packet(encode_olsr_packet(1, (message,)))
        assert isinstance(messages, tuple)

    def test_malformed_datagrams_still_raise_every_time(self):
        for _ in range(2):
            with pytest.raises(CodecError):
                decode_aodv(b"\x01\x00")
            with pytest.raises(CodecError):
                decode_olsr_packet(b"\x01\x00")

    @pytest.mark.parametrize(
        "decode, wire",
        [
            (decode_hello_body, encode_hello_body(HelloBody(links={2: ["10.0.0.2"]}))),
            (decode_tc_body, encode_tc_body(TcBody(ansn=4, neighbors=["10.0.0.2"]))),
        ],
        ids=["hello", "tc"],
    )
    def test_olsr_body_decode_is_shared_between_equal_bodies(self, decode, wire):
        assert decode(wire) is decode(_copy(wire))

    def test_decoded_olsr_bodies_are_read_only(self):
        hello = decode_hello_body(
            encode_hello_body(HelloBody(links={2: ["10.0.0.2"], 3: ["10.0.0.3"]}))
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            hello.links = {}
        with pytest.raises(TypeError):
            hello.links[1] = ("10.0.0.9",)
        assert all(isinstance(ips, tuple) for ips in hello.links.values())
        tc = decode_tc_body(encode_tc_body(TcBody(ansn=4, neighbors=["10.0.0.2"])))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tc.ansn = 5
        assert tc.neighbors == ("10.0.0.2",)

    @pytest.mark.parametrize(
        "decode, wire",
        [
            (decode_hello_body, b"\x00\x03\x02\x00\x00\x05"),  # five addresses announced
            (decode_tc_body, b"\x00\x01\x00\x00\x0a\x00\x00\x02\x0a\x00"),  # one cut short
        ],
        ids=["hello", "tc"],
    )
    def test_malformed_olsr_bodies_raise_every_time(self, decode, wire):
        for _ in range(2):
            with pytest.raises(CodecError):
                decode(wire)
