"""RTP packet format (RFC 3550, fixed 12-byte header, no CSRC/extensions).

The payload of simulated voice frames embeds the send timestamp in its
first 8 bytes so the receiver can measure true one-way (mouth-to-ear)
delay; the rest is zero filler up to the codec frame size. This is a
measurement aid of the simulation, not a protocol deviation — the bytes on
air have exactly the real frame size.

This module is the one RTP codec. Its readers work in place:
:func:`read_header` unpacks the fixed header, :func:`walk_red` the RFC 2198
block headers, and :func:`extract_send_time` a send stamp at its offset, so
a receiver never copies a payload. :class:`RtpPacket`, :func:`decode_rtp`
and :func:`decode_red` build objects from the same readers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from repro.errors import CodecError

RTP_VERSION = 2
RTP_HEADER_BYTES = 12

_HEADER = struct.Struct("!BBHII")
_FIRST_OCTET = RTP_VERSION << 6  # no padding, no extension, zero CSRCs
_TS = struct.Struct("!d")


def pack_header(
    payload_type: int, sequence: int, timestamp: int, ssrc: int, marker: bool = False
) -> bytes:
    """The fixed 12-byte header; the payload follows it."""
    return _HEADER.pack(
        _FIRST_OCTET,
        (0x80 if marker else 0) | (payload_type & 0x7F),
        sequence & 0xFFFF,
        timestamp & 0xFFFFFFFF,
        ssrc,
    )


def read_header(data: bytes) -> tuple[int, bool, int, int, int]:
    """``(payload_type, marker, sequence, timestamp, ssrc)`` of a datagram.

    The payload starts at :data:`RTP_HEADER_BYTES`. Raises
    :class:`CodecError` for a datagram shorter than the header or of
    another RTP version.
    """
    if len(data) < RTP_HEADER_BYTES:
        raise CodecError("RTP packet too short")
    first, second, sequence, timestamp, ssrc = _HEADER.unpack_from(data)
    version = first >> 6
    if version != RTP_VERSION:
        raise CodecError(f"unsupported RTP version {version}")
    return second & 0x7F, second > 0x7F, sequence, timestamp, ssrc


@dataclass
class RtpPacket:
    payload_type: int
    sequence: int
    timestamp: int
    ssrc: int
    payload: bytes
    marker: bool = False

    @property
    def size(self) -> int:
        return RTP_HEADER_BYTES + len(self.payload)

    def encode(self) -> bytes:
        header = pack_header(
            self.payload_type, self.sequence, self.timestamp, self.ssrc, self.marker
        )
        return header + self.payload


def decode_rtp(data: bytes) -> RtpPacket:
    payload_type, marker, sequence, timestamp, ssrc = read_header(data)
    return RtpPacket(payload_type, sequence, timestamp, ssrc, data[RTP_HEADER_BYTES:], marker)


@lru_cache(maxsize=None)
def voice_frame(frame_bytes: int) -> struct.Struct:
    """The layout of a voice frame: the send stamp, then zero filler.

    ``voice_frame(n).pack(send_time)`` builds an ``n``-byte frame in one
    call; a sender looks the layout up once.
    """
    if frame_bytes < _TS.size:
        raise CodecError(f"frame too small to carry a timestamp: {frame_bytes}")
    return struct.Struct(f"!d{frame_bytes - _TS.size}x")


def make_voice_payload(frame_bytes: int, send_time: float) -> bytes:
    """A codec frame of ``frame_bytes`` with the send time stamped inside."""
    return voice_frame(frame_bytes).pack(send_time)


def extract_send_time(data: bytes, offset: int = 0) -> float:
    """The send stamp of the voice frame that starts at ``data[offset]``."""
    if len(data) - offset < _TS.size:
        raise CodecError("payload too short for a send timestamp")
    return _TS.unpack_from(data, offset)[0]


# ---------------------------------------------------------------------------
# RFC 2198 redundant audio ("red")
# ---------------------------------------------------------------------------
#
# A red payload is a list of blocks, oldest secondary first, primary last.
# Each secondary carries a 4-byte header (F=1 | 7-bit PT | 14-bit timestamp
# offset | 10-bit length); the primary carries a 1-byte header (F=0 | PT)
# and runs to the end of the payload. All headers come first, then the
# payloads in the same order.
#
# The codec reads and writes a secondary header as a byte (F | PT), a byte
# (the offset's high 8 bits) and a 16-bit half (its low 6 bits, then the
# length): every field is then a one-digit int, where the whole 32-bit
# word, bit 31 set, is a two-digit one whose arithmetic costs more.

_RED_MAX_TS_OFFSET = (1 << 14) - 1
#: Largest block a secondary can carry: its length field is 10 bits.
RED_MAX_BLOCK_BYTES = (1 << 10) - 1
_RED_OFFSET_LENGTH = struct.Struct("!BH")  # after the F | PT byte
_RED_SECONDARY_HEADER_BYTES = 1 + _RED_OFFSET_LENGTH.size


class RedBlock(NamedTuple):
    """One encoding inside an RFC 2198 payload (primary or secondary).

    The codec reads blocks as plain ``(payload_type, timestamp_offset,
    payload)`` triples, so senders may pass bare tuples.
    """

    payload_type: int
    timestamp_offset: int  # RTP timestamp units behind the packet timestamp
    payload: bytes


@lru_cache(maxsize=None)
def _red_header_layout(secondaries: int) -> struct.Struct:
    return struct.Struct("!" + "BBH" * secondaries + "B")


def red_headers(blocks: Sequence[tuple[int, int, bytes]]) -> bytes:
    """The block headers of an RFC 2198 payload made of ``blocks``.

    ``blocks`` run oldest secondary first, primary LAST; the payloads
    follow the headers in that order. Raises :class:`CodecError` for no
    blocks, or for a secondary whose timestamp offset overflows 14 bits or
    whose length overflows 10.
    """
    if not blocks:
        raise CodecError("red payload needs at least a primary block")
    fields: list[int] = []
    for payload_type, ts_offset, payload in blocks[:-1]:
        if not 0 <= ts_offset <= _RED_MAX_TS_OFFSET:
            raise CodecError(f"red timestamp offset {ts_offset} exceeds 14 bits")
        length = len(payload)
        if length > RED_MAX_BLOCK_BYTES:
            raise CodecError(f"red block of {length} bytes exceeds 10 bits")
        fields += (0x80 | (payload_type & 0x7F), ts_offset >> 6, (ts_offset & 0x3F) << 10 | length)
    fields.append(blocks[-1][0] & 0x7F)
    return _red_header_layout(len(blocks) - 1).pack(*fields)


def encode_red(blocks: Sequence[tuple[int, int, bytes]]) -> bytes:
    """Encode blocks (oldest secondary first, primary LAST) per RFC 2198."""
    return red_headers(blocks) + b"".join([payload for _, _, payload in blocks])


def walk_red(data: bytes, offset: int = 0) -> tuple[list[tuple[int, int, int]], int, int]:
    """Read the block headers of the RFC 2198 payload at ``data[offset:]``.

    Returns ``(secondaries, primary_type, primary_at)``: one
    ``(payload_type, timestamp_offset, length)`` per secondary, oldest
    first; the primary's payload type; and where the primary's payload
    starts. The secondaries' payloads lie back to back before it. Raises
    :class:`CodecError` for truncated block headers or block lengths that
    run past the end of ``data``.
    """
    size = len(data)
    secondaries: list[tuple[int, int, int]] = []
    payload_bytes = 0
    while True:
        if offset >= size:
            raise CodecError("red payload truncated in its block headers")
        first = data[offset]
        if not first & 0x80:  # F=0: the primary's 1-byte header
            break
        if offset + _RED_SECONDARY_HEADER_BYTES > size:
            raise CodecError("red payload truncated in a secondary header")
        offset_high, low = _RED_OFFSET_LENGTH.unpack_from(data, offset + 1)
        length = low & 0x3FF
        secondaries.append((first & 0x7F, offset_high << 6 | low >> 10, length))
        payload_bytes += length
        offset += _RED_SECONDARY_HEADER_BYTES
    primary_at = offset + 1 + payload_bytes
    if primary_at > size:
        raise CodecError("red payload shorter than its block headers claim")
    return secondaries, first & 0x7F, primary_at


def decode_red(data: bytes) -> list[RedBlock]:
    """Decode an RFC 2198 payload into blocks; the primary is LAST."""
    secondaries, primary_type, primary_at = walk_red(data)
    offset = _RED_SECONDARY_HEADER_BYTES * len(secondaries) + 1  # past the headers
    blocks: list[RedBlock] = []
    for payload_type, ts_offset, length in secondaries:
        end = offset + length
        blocks.append(RedBlock(payload_type, ts_offset, data[offset:end]))
        offset = end
    blocks.append(RedBlock(primary_type, 0, data[primary_at:]))
    return blocks


# ---------------------------------------------------------------------------
# RFC 3389 comfort noise and RFC 2833 telephone events
# ---------------------------------------------------------------------------

_DTMF = struct.Struct("!BBH")

#: DTMF digit -> RFC 2833 event code.
DTMF_EVENTS = {
    **{str(d): d for d in range(10)},
    "*": 10,
    "#": 11,
    "A": 12,
    "B": 13,
    "C": 14,
    "D": 15,
}
_DTMF_DIGITS = {code: digit for digit, code in DTMF_EVENTS.items()}


def make_comfort_noise_payload(level: int = 70) -> bytes:
    """RFC 3389 CN payload: one absolute noise-level byte (-dBov)."""
    return bytes([level & 0x7F])


def make_dtmf_payload(digit: str, duration_units: int, end: bool = True, volume: int = 10) -> bytes:
    """RFC 2833 telephone-event payload for one DTMF digit."""
    event = DTMF_EVENTS.get(digit)
    if event is None:
        raise CodecError(f"not a DTMF digit: {digit!r}")
    flags = (0x80 if end else 0) | (volume & 0x3F)
    return _DTMF.pack(event, flags, duration_units & 0xFFFF)


def decode_dtmf_payload(data: bytes, offset: int = 0) -> tuple[str, bool, int]:
    """Decode the telephone-event payload at ``data[offset:]`` -> (digit, end, duration_units)."""
    if len(data) - offset < _DTMF.size:
        raise CodecError("telephone-event payload too short")
    event, flags, duration = _DTMF.unpack_from(data, offset)
    digit = _DTMF_DIGITS.get(event)
    if digit is None:
        raise CodecError(f"unknown telephone event code {event}")
    return digit, bool(flags & 0x80), duration
