"""Unit tests for the SLP wire codec."""

import dataclasses

import pytest

from repro.errors import CodecError
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


class TestRoundTrips:
    def test_srvrqst(self):
        message = SrvRqst(
            xid=7,
            service_type="siphoc-sip",
            predicate="(user=sip:bob@voicehoc.ch)",
            requester="192.168.0.1",
        )
        assert decode_slp(encode_slp(message)) == message

    def test_srvrply_multiple_entries(self):
        message = SrvRply(
            xid=9,
            entries=(
                UrlEntry(url="service:siphoc-sip://192.168.0.5:5060", lifetime=60,
                         attributes="(user=sip:bob@voicehoc.ch)"),
                UrlEntry(url="service:siphoc-sip://192.168.0.6:5060", lifetime=30,
                         attributes=""),
            ),
        )
        assert decode_slp(encode_slp(message)) == message

    def test_srvreg(self):
        message = SrvReg(
            xid=2,
            entry=UrlEntry(url="service:gateway.siphoc://192.168.0.9:5063",
                           lifetime=120, attributes="(wired=10.0.0.3)"),
        )
        assert decode_slp(encode_slp(message)) == message

    def test_srvdereg_and_ack(self):
        assert decode_slp(encode_slp(SrvDeReg(xid=1, url="service:x://h"))) == SrvDeReg(
            xid=1, url="service:x://h"
        )
        assert decode_slp(encode_slp(SrvAck(xid=3, error=5))) == SrvAck(xid=3, error=5)

    def test_unicode_strings(self):
        message = SrvRqst(xid=1, service_type="tëst", predicate="(k=välue)", requester="1.2.3.4")
        assert decode_slp(encode_slp(message)) == message


class TestErrors:
    def test_bad_version(self):
        data = bytearray(encode_slp(SrvAck(xid=1)))
        data[0] = 9
        with pytest.raises(CodecError):
            decode_slp(bytes(data))

    def test_bad_function(self):
        data = bytearray(encode_slp(SrvAck(xid=1)))
        data[1] = 200
        with pytest.raises(CodecError):
            decode_slp(bytes(data))

    def test_truncated(self):
        data = encode_slp(
            SrvRqst(xid=1, service_type="siphoc-sip", predicate="", requester="1.2.3.4")
        )
        with pytest.raises(CodecError):
            decode_slp(data[:-3])

    def test_invalid_utf8_string(self):
        data = encode_slp(SrvDeReg(xid=1, url="ab"))
        with pytest.raises(CodecError):
            decode_slp(data[:-2] + b"\xff\xfe")


class TestSharedDecodes:
    """decode_slp is memoized on content and returns immutable results."""

    def test_equal_bytes_share_one_decode(self):
        wire = encode_slp(SrvRqst(xid=4, service_type="siphoc-sip", requester="1.2.3.4"))
        copy = bytes(bytearray(wire))
        assert copy is not wire
        assert decode_slp(wire) is decode_slp(copy)

    @pytest.mark.parametrize(
        "message, field",
        [
            (SrvRqst(xid=1, service_type="t"), "service_type"),
            (SrvRply(xid=1, entries=(UrlEntry(url="service:x://h", lifetime=5),)), "entries"),
            (SrvReg(xid=1, entry=UrlEntry(url="service:x://h", lifetime=5)), "xid"),
            (SrvDeReg(xid=1, url="service:x://h"), "url"),
            (SrvAck(xid=1), "error"),
        ],
    )
    def test_decoded_messages_are_frozen(self, message, field):
        decoded = decode_slp(encode_slp(message))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(decoded, field, 0)

    def test_url_entries_are_frozen_tuples(self):
        entry = UrlEntry(url="service:x://h", lifetime=5)
        decoded = decode_slp(encode_slp(SrvRply(xid=1, entries=(entry,))))
        assert isinstance(decoded.entries, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            decoded.entries[0].lifetime = 6
        registered = decode_slp(encode_slp(SrvReg(xid=1, entry=entry)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            registered.entry.url = "service:y://h"


class TestUrlEntryConversion:
    def test_to_service_entry(self):
        entry = UrlEntry(
            url="service:siphoc-sip://192.168.0.5:5060",
            lifetime=60,
            attributes="(user=sip:bob@voicehoc.ch)",
        ).to_service_entry(now=10.0, origin="192.168.0.5")
        assert entry.url.host == "192.168.0.5"
        assert entry.expires_at == 70.0
        assert entry.attributes == {"user": "sip:bob@voicehoc.ch"}
        assert entry.origin == "192.168.0.5"

    def test_entries_from_one_text_do_not_share_attributes(self):
        # The parses are memoized; each ServiceEntry still gets its own dict.
        url_entry = UrlEntry("service:siphoc-sip://192.168.0.5:5060", 60, "(user=a)")
        first = url_entry.to_service_entry(now=0.0, origin="192.168.0.5")
        second = url_entry.to_service_entry(now=1.0, origin="192.168.0.6")
        assert first.attributes is not second.attributes
        first.attributes["user"] = "mutated"
        assert second.attributes == {"user": "a"}
        assert url_entry.to_service_entry(now=2.0, origin="x").attributes == {"user": "a"}

    def test_from_service_entry_clamps_lifetime(self):
        from repro.slp import ServiceEntry, ServiceUrl

        entry = ServiceEntry(
            url=ServiceUrl.parse("service:x://h:1"),
            attributes={},
            lifetime=0.2,
            expires_at=1.0,
        )
        url_entry = UrlEntry.from_service_entry(entry, remaining=0.2)
        assert url_entry.lifetime >= 1
