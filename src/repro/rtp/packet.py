"""RTP packet format (RFC 3550, fixed 12-byte header, no CSRC/extensions).

The payload of simulated voice frames embeds the send timestamp in its
first 8 bytes so the receiver can measure true one-way (mouth-to-ear)
delay; the rest is zero filler up to the codec frame size. This is a
measurement aid of the simulation, not a protocol deviation — the bytes on
air have exactly the real frame size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.errors import CodecError

RTP_VERSION = 2
RTP_HEADER_BYTES = 12

_HEADER = struct.Struct("!BBHII")
_TS = struct.Struct("!d")


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
        first = (RTP_VERSION << 6)  # no padding, no extension, zero CSRCs
        second = (0x80 if self.marker else 0) | (self.payload_type & 0x7F)
        header = _HEADER.pack(
            first, second, self.sequence & 0xFFFF, self.timestamp & 0xFFFFFFFF, self.ssrc
        )
        return header + self.payload


def decode_rtp(data: bytes) -> RtpPacket:
    if len(data) < RTP_HEADER_BYTES:
        raise CodecError("RTP packet too short")
    first, second, sequence, timestamp, ssrc = _HEADER.unpack_from(data)
    version = first >> 6
    if version != RTP_VERSION:
        raise CodecError(f"unsupported RTP version {version}")
    return RtpPacket(
        payload_type=second & 0x7F,
        marker=bool(second & 0x80),
        sequence=sequence,
        timestamp=timestamp,
        ssrc=ssrc,
        payload=data[RTP_HEADER_BYTES:],
    )


def make_voice_payload(frame_bytes: int, send_time: float) -> bytes:
    """A codec frame of ``frame_bytes`` with the send time stamped inside."""
    if frame_bytes < _TS.size:
        raise CodecError(f"frame too small to carry a timestamp: {frame_bytes}")
    return _TS.pack(send_time) + bytes(frame_bytes - _TS.size)


def extract_send_time(payload: bytes) -> float:
    if len(payload) < _TS.size:
        raise CodecError("payload too short for a send timestamp")
    return _TS.unpack_from(payload)[0]


# ---------------------------------------------------------------------------
# RFC 2198 redundant audio ("red")
# ---------------------------------------------------------------------------
#
# A red payload is a list of blocks, oldest secondary first, primary last.
# Each secondary carries a 4-byte header (F=1 | 7-bit PT | 14-bit timestamp
# offset | 10-bit length); the primary carries a 1-byte header (F=0 | PT)
# and runs to the end of the payload.

_RED_MAX_TS_OFFSET = (1 << 14) - 1
#: Largest block a secondary can carry: its length field is 10 bits.
RED_MAX_BLOCK_BYTES = (1 << 10) - 1
_RED_WORD = struct.Struct("!I")


class RedBlock(NamedTuple):
    """One encoding inside an RFC 2198 payload (primary or secondary).

    The codec reads blocks as plain ``(payload_type, timestamp_offset,
    payload)`` triples, so senders may pass bare tuples.
    """

    payload_type: int
    timestamp_offset: int  # RTP timestamp units behind the packet timestamp
    payload: bytes


def encode_red(blocks: Sequence[tuple[int, int, bytes]]) -> bytes:
    """Encode blocks (oldest secondary first, primary LAST) per RFC 2198."""
    if not blocks:
        raise CodecError("red payload needs at least a primary block")
    headers = []
    payloads = []
    for payload_type, ts_offset, payload in blocks[:-1]:
        if not 0 <= ts_offset <= _RED_MAX_TS_OFFSET:
            raise CodecError(f"red timestamp offset {ts_offset} exceeds 14 bits")
        length = len(payload)
        if length > RED_MAX_BLOCK_BYTES:
            raise CodecError(f"red block of {length} bytes exceeds 10 bits")
        word = (1 << 31) | ((payload_type & 0x7F) << 24) | (ts_offset << 10) | length
        headers.append(_RED_WORD.pack(word))
        payloads.append(payload)
    primary_type, _, primary = blocks[-1]
    headers.append(bytes((primary_type & 0x7F,)))
    payloads.append(primary)
    return b"".join(headers) + b"".join(payloads)


def decode_red(data: bytes) -> list[RedBlock]:
    """Decode an RFC 2198 payload into blocks; the primary is LAST."""
    secondaries: list[tuple[int, int, int]] = []  # (payload_type, ts_offset, length)
    offset = 0
    size = len(data)
    while True:
        if offset >= size:
            raise CodecError("red payload truncated in its block headers")
        if not data[offset] & 0x80:  # F=0: the primary's 1-byte header
            break
        if offset + 4 > size:
            raise CodecError("red payload truncated in a secondary header")
        (word,) = _RED_WORD.unpack_from(data, offset)
        secondaries.append(((word >> 24) & 0x7F, (word >> 10) & 0x3FFF, word & 0x3FF))
        offset += 4
    primary_type = data[offset] & 0x7F
    offset += 1
    blocks: list[RedBlock] = []
    for payload_type, ts_offset, length in secondaries:
        end = offset + length
        if end > size:
            raise CodecError("red payload shorter than its block headers claim")
        blocks.append(RedBlock(payload_type, ts_offset, data[offset:end]))
        offset = end
    blocks.append(RedBlock(primary_type, 0, data[offset:]))
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


def decode_dtmf_payload(data: bytes) -> tuple[str, bool, int]:
    """Decode a telephone-event payload -> (digit, end, duration_units)."""
    if len(data) < _DTMF.size:
        raise CodecError("telephone-event payload too short")
    event, flags, duration = _DTMF.unpack_from(data)
    digit = _DTMF_DIGITS.get(event)
    if digit is None:
        raise CodecError(f"unknown telephone event code {event}")
    return digit, bool(flags & 0x80), duration
