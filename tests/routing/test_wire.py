"""Unit tests for the binary reader/writer helpers."""

import pytest

from repro.errors import CodecError
from repro.routing import OLSR_TC, Extension, OlsrMessage, Rreq, encode_aodv, encode_olsr_packet
from repro.routing.wire import Reader, Writer, decode_ip, encode_ip
from repro.slp import SrvReg, UrlEntry, encode_slp


class TestIpCodec:
    def test_round_trip(self):
        assert decode_ip(encode_ip("192.168.0.1")) == "192.168.0.1"
        assert decode_ip(encode_ip("0.0.0.0")) == "0.0.0.0"
        assert decode_ip(encode_ip("255.255.255.255")) == "255.255.255.255"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "a.b.c.d",
            "300.1.1.1",
            "1_0.0.0.1",
            "+1.2.3.4",
            " 1.2.3.4",
            "\uff11.2.3.4",  # full-width digit one
            "01.002.3.4",
        ],
    )
    def test_invalid_addresses(self, bad):
        with pytest.raises(CodecError):
            encode_ip(bad)

    def test_decode_truncated(self):
        with pytest.raises(CodecError):
            decode_ip(b"\x01\x02")


class TestWriterReader:
    def test_round_trip_all_types(self):
        writer = Writer()
        writer.u8(7).u16(1000).u32(70000).ip("10.1.2.3").raw(b"tail")
        data = writer.getvalue()
        reader = Reader(data)
        assert reader.u8() == 7
        assert reader.u16() == 1000
        assert reader.u32() == 70000
        assert reader.ip() == "10.1.2.3"
        assert reader.rest() == b"tail"
        assert reader.remaining == 0

    def test_reader_bounds_checked(self):
        reader = Reader(b"\x01")
        reader.u8()
        with pytest.raises(CodecError):
            reader.u16()

    def test_writer_len(self):
        writer = Writer()
        writer.u32(1).u8(2)
        assert len(writer) == 5

    def test_network_byte_order(self):
        writer = Writer()
        writer.u16(0x0102)
        assert writer.getvalue() == b"\x01\x02"

    @pytest.mark.parametrize(
        "write",
        [lambda w: w.u8(256), lambda w: w.u16(-1), lambda w: w.u32(2**32)],
        ids=["u8-256", "u16-negative", "u32-2^32"],
    )
    def test_out_of_range_field_is_codec_error(self, write):
        with pytest.raises(CodecError):
            write(Writer())


def _rreq(**overrides):
    fields = dict(rreq_id=1, dest_ip="1.1.1.1", dest_seq=0, orig_ip="2.2.2.2", orig_seq=0)
    fields.update(overrides)
    return Rreq(**fields)


def _olsr(**overrides):
    fields = dict(msg_type=OLSR_TC, orig_ip="1.1.1.1", seq=1, body=b"")
    fields.update(overrides)
    return OlsrMessage(**fields)


class TestEncoderRangeErrors:
    """Every encoder built on Writer reports an unencodable field as CodecError."""

    @pytest.mark.parametrize(
        "encode",
        [
            pytest.param(
                lambda: encode_aodv(_rreq(), (Extension(0x11, b"x" * 70_000),)),
                id="70000-byte-extension-body",
            ),
            pytest.param(lambda: encode_aodv(_rreq(hop_count=300)), id="rreq-hop-count-300"),
            pytest.param(lambda: encode_aodv(_rreq(dest_seq=2**32)), id="rreq-dest-seq-2^32"),
            pytest.param(
                lambda: encode_olsr_packet(1, (_olsr(body=b"x" * 70_000),)),
                id="70000-byte-olsr-message-body",
            ),
            pytest.param(lambda: encode_olsr_packet(1, (_olsr(seq=70_000),)), id="olsr-seq-70000"),
            pytest.param(
                lambda: encode_slp(
                    SrvReg(xid=1, entry=UrlEntry(url="service:x://h", lifetime=70_000))
                ),
                id="url-entry-lifetime-70000",
            ),
        ],
    )
    def test_raises_codec_error(self, encode):
        with pytest.raises(CodecError):
            encode()
