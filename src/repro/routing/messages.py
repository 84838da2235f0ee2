"""Wire formats for AODV (RFC 3561) and OLSR (RFC 3626) control messages.

Both codecs support trailing *extensions* — the mechanism SIPHoc uses to
piggyback SLP payloads onto routing traffic:

* AODV datagrams carry one base message followed by TLV extension blocks
  (``ext_type:u8, length:u16, body``).
* OLSR packets are containers of messages; piggybacked payloads travel as
  additional messages with a type >= 128, which compliant daemons flood via
  the default forwarding algorithm without understanding them.

``decode_aodv`` and ``decode_olsr_packet`` are memoized on the datagram
bytes: the SLP INPUT hook, the daemon behind it and every neighbour of one
broadcast share a single decode. ``decode_hello_body`` and
``decode_tc_body`` are memoized on the message body, which every receiver
of one HELLO or TC shares, and ``hello_view`` on the body and its
receiver, since a neighbour's HELLO repeats while its links hold. What
they return is immutable (frozen messages, tuple sequences, read-only
mappings); a caller that wants to change a message builds a new one.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from repro.errors import CodecError
from repro.routing.wire import DECODE_CACHE_SIZE, Reader, Writer, decode_ip, encode_ip

# -- shared extension container ------------------------------------------------


@dataclass(frozen=True)
class Extension:
    """An opaque piggybacked payload attached to a routing message."""

    ext_type: int
    body: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.ext_type <= 255:
            raise CodecError(f"extension type out of range: {self.ext_type}")


def encode_extensions(extensions: tuple[Extension, ...] | list[Extension]) -> bytes:
    writer = Writer()
    for ext in extensions:
        writer.u8(ext.ext_type).u16(len(ext.body)).raw(ext.body)
    return writer.getvalue()


def decode_extensions(reader: Reader) -> tuple[Extension, ...]:
    extensions = []
    while reader.remaining > 0:
        ext_type = reader.u8()
        length = reader.u16()
        extensions.append(Extension(ext_type, reader.raw(length)))
    return tuple(extensions)


# -- AODV ------------------------------------------------------------------------

AODV_RREQ = 1
AODV_RREP = 2
AODV_RERR = 3

RREQ_FLAG_DEST_ONLY = 0x01
RREQ_FLAG_UNKNOWN_SEQ = 0x02


@dataclass(frozen=True)
class Rreq:
    """Route Request: flooded to discover a route to ``dest_ip``."""

    rreq_id: int
    dest_ip: str
    dest_seq: int
    orig_ip: str
    orig_seq: int
    hop_count: int = 0
    flags: int = 0

    @property
    def dest_only(self) -> bool:
        return bool(self.flags & RREQ_FLAG_DEST_ONLY)

    @property
    def unknown_seq(self) -> bool:
        return bool(self.flags & RREQ_FLAG_UNKNOWN_SEQ)


@dataclass(frozen=True)
class Rrep:
    """Route Reply: unicast back along the reverse route to ``orig_ip``."""

    dest_ip: str
    dest_seq: int
    orig_ip: str
    lifetime_ms: int
    hop_count: int = 0

    def is_hello(self) -> bool:
        """AODV hello messages are RREPs with dest == orig and hop count 0."""
        return self.dest_ip == self.orig_ip and self.hop_count == 0


@dataclass(frozen=True)
class Rerr:
    """Route Error: lists destinations that became unreachable."""

    unreachable: tuple[tuple[str, int], ...] = ()


AodvMessage = Rreq | Rrep | Rerr


def encode_aodv(
    message: AodvMessage, extensions: tuple[Extension, ...] | list[Extension] = ()
) -> bytes:
    """Serialize one AODV message plus optional piggybacked extensions."""
    writer = Writer()
    if isinstance(message, Rreq):
        writer.u8(AODV_RREQ).u8(message.flags).u8(0).u8(message.hop_count)
        writer.u32(message.rreq_id)
        writer.ip(message.dest_ip).u32(message.dest_seq)
        writer.ip(message.orig_ip).u32(message.orig_seq)
    elif isinstance(message, Rrep):
        writer.u8(AODV_RREP).u8(0).u8(0).u8(message.hop_count)
        writer.ip(message.dest_ip).u32(message.dest_seq)
        writer.ip(message.orig_ip).u32(message.lifetime_ms)
    elif isinstance(message, Rerr):
        if len(message.unreachable) > 255:
            raise CodecError("RERR cannot list more than 255 destinations")
        writer.u8(AODV_RERR).u8(0).u8(0).u8(len(message.unreachable))
        for ip, seq in message.unreachable:
            writer.ip(ip).u32(seq)
    else:  # pragma: no cover - defensive
        raise CodecError(f"unknown AODV message {message!r}")
    writer.raw(encode_extensions(extensions))
    return writer.getvalue()


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def decode_aodv(data: bytes) -> tuple[AodvMessage, tuple[Extension, ...]]:
    """Parse an AODV datagram into its base message and extensions.

    Memoized: equal datagrams return the same (immutable) result object.
    """
    reader = Reader(data)
    msg_type = reader.u8()
    message: AodvMessage
    if msg_type == AODV_RREQ:
        flags = reader.u8()
        reader.u8()  # reserved
        hop_count = reader.u8()
        rreq_id = reader.u32()
        dest_ip, dest_seq = reader.ip(), reader.u32()
        orig_ip, orig_seq = reader.ip(), reader.u32()
        message = Rreq(
            rreq_id=rreq_id,
            dest_ip=dest_ip,
            dest_seq=dest_seq,
            orig_ip=orig_ip,
            orig_seq=orig_seq,
            hop_count=hop_count,
            flags=flags,
        )
    elif msg_type == AODV_RREP:
        reader.u8()  # flags
        reader.u8()  # prefix size
        hop_count = reader.u8()
        dest_ip, dest_seq = reader.ip(), reader.u32()
        orig_ip, lifetime_ms = reader.ip(), reader.u32()
        message = Rrep(
            dest_ip=dest_ip,
            dest_seq=dest_seq,
            orig_ip=orig_ip,
            lifetime_ms=lifetime_ms,
            hop_count=hop_count,
        )
    elif msg_type == AODV_RERR:
        reader.u8()  # flags
        reader.u8()  # reserved
        count = reader.u8()
        message = Rerr(unreachable=tuple((reader.ip(), reader.u32()) for _ in range(count)))
    else:
        raise CodecError(f"unknown AODV message type {msg_type}")
    return message, decode_extensions(reader)


# -- OLSR --------------------------------------------------------------------------

OLSR_HELLO = 1
OLSR_TC = 2
OLSR_SLP = 130  # SIPHoc piggyback message (unknown to plain OLSR, flooded anyway)

LINK_ASYM = 1
LINK_SYM = 2
LINK_MPR = 3

#: Packet header: length, packet sequence number.
_OLSR_PACKET_HEADER = struct.Struct("!HH")
#: Message header: type, vtime, size, originator, TTL, hop count, sequence.
_OLSR_MESSAGE_HEADER = struct.Struct("!BBH4sBBH")


class OlsrMessage(NamedTuple):
    """Generic OLSR message envelope; ``body`` stays opaque at this layer.

    A ``NamedTuple``, not a frozen dataclass: one is built for every message
    decoded and every message forwarded, and a tuple builds in a third of
    the time. Assigning a field raises ``FrozenInstanceError`` as on the
    other decoded messages.
    """

    msg_type: int
    orig_ip: str
    seq: int
    body: bytes
    vtime: float = 6.0
    ttl: int = 255
    hops: int = 0

    def key(self) -> tuple[str, int]:
        """Duplicate-suppression key used by the flooding algorithm."""
        return (self.orig_ip, self.seq)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


@dataclass(frozen=True)
class HelloBody:
    """OLSR HELLO: the sender's view of its links, by link code.

    ``links`` is read-only and maps each link code to a tuple of addresses;
    a dict of lists passed in is copied into one.
    """

    links: Mapping[int, tuple[str, ...]] = field(default_factory=dict)
    willingness: int = 3

    def __post_init__(self) -> None:
        # Decoded bodies are shared: a caller's dict becomes a read-only copy.
        links = {code: tuple(ips) for code, ips in self.links.items()}
        object.__setattr__(self, "links", MappingProxyType(links))

    def all_neighbors(self) -> tuple[str, ...]:
        return tuple(ip for ips in self.links.values() for ip in ips)


@dataclass(frozen=True)
class TcBody:
    """OLSR Topology Control: advertised (MPR-selector) neighbors."""

    ansn: int
    neighbors: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "neighbors", tuple(self.neighbors))


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def _encode_vtime(seconds: float) -> int:
    return max(0, min(255, int(seconds * 4)))


def _decode_vtime(raw: int) -> float:
    return raw / 4.0


def encode_hello_body(body: HelloBody) -> bytes:
    writer = Writer()
    writer.u8(0).u8(body.willingness)
    for link_code in sorted(body.links):
        ips = body.links[link_code]
        writer.u8(link_code).u8(0).u16(len(ips))
        for ip in ips:
            writer.ip(ip)
    return writer.getvalue()


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def decode_hello_body(data: bytes) -> HelloBody:
    """Parse a HELLO body; equal bodies return the same (immutable) object."""
    reader = Reader(data)
    reader.u8()  # htime (unused)
    willingness = reader.u8()
    links: dict[int, list[str]] = {}
    while reader.remaining > 0:
        link_code = reader.u8()
        reader.u8()  # reserved
        count = reader.u16()
        links.setdefault(link_code, []).extend(reader.ip() for _ in range(count))
    return HelloBody(links=links, willingness=willingness)


class HelloView(NamedTuple):
    """What one HELLO body tells one receiver (see :func:`hello_view`)."""

    #: The receiver appears under some link code: the link is symmetric.
    listed: bool
    #: The receiver appears under ``LINK_MPR``: the sender selected it.
    selected: bool
    #: The sender's symmetric neighbours other than the receiver.
    two_hop: frozenset[str]


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def hello_view(data: bytes, receiver: str) -> HelloView:
    """The facts an OLSR daemon at ``receiver`` reads from a HELLO body.

    Memoized on both: a neighbour repeats its HELLO while its links hold,
    and every reception then shares one view and one ``two_hop`` set. A
    malformed body raises :class:`CodecError` on every call.
    """
    links = decode_hello_body(data).links
    return HelloView(
        listed=any(receiver in ips for ips in links.values()),
        selected=receiver in links.get(LINK_MPR, ()),
        two_hop=frozenset(
            ip
            for code in (LINK_SYM, LINK_MPR)
            for ip in links.get(code, ())
            if ip != receiver
        ),
    )


def encode_tc_body(body: TcBody) -> bytes:
    writer = Writer()
    writer.u16(body.ansn).u16(0)
    for ip in body.neighbors:
        writer.ip(ip)
    return writer.getvalue()


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def decode_tc_body(data: bytes) -> TcBody:
    """Parse a TC body; equal bodies return the same (immutable) object."""
    reader = Reader(data)
    ansn = reader.u16()
    reader.u16()  # reserved
    if reader.remaining % 4:
        raise CodecError(
            f"TC address block of {reader.remaining} bytes is not a whole number of addresses"
        )
    return TcBody(ansn=ansn, neighbors=tuple(reader.ip() for _ in range(reader.remaining // 4)))


def encode_olsr_packet(
    packet_seq: int, messages: tuple[OlsrMessage, ...] | list[OlsrMessage]
) -> bytes:
    """Serialize an OLSR packet (header + concatenated messages)."""
    parts = [b""]
    length = _OLSR_PACKET_HEADER.size
    for message in messages:
        body = message.body
        size = _OLSR_MESSAGE_HEADER.size + len(body)
        parts.append(_pack(
            _OLSR_MESSAGE_HEADER, message.msg_type, _encode_vtime(message.vtime), size,
            encode_ip(message.orig_ip), message.ttl, message.hops, message.seq,
        ))
        parts.append(body)
        length += size
    parts[0] = _pack(_OLSR_PACKET_HEADER, length, packet_seq)
    return b"".join(parts)


def _pack(header: struct.Struct, *values: object) -> bytes:
    try:
        return header.pack(*values)
    except struct.error as exc:
        raise CodecError(f"OLSR header {values!r} does not fit its wire fields") from exc


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def decode_olsr_packet(data: bytes) -> tuple[int, tuple[OlsrMessage, ...]]:
    """Parse an OLSR packet into its sequence number and messages.

    Memoized: equal packets return the same (immutable) result object.
    """
    total = len(data)
    if total < _OLSR_PACKET_HEADER.size:
        raise _truncated(_OLSR_PACKET_HEADER.size, total)
    length, packet_seq = _OLSR_PACKET_HEADER.unpack_from(data)
    if length != total:
        raise CodecError(f"OLSR packet length mismatch: header says {length}, got {total}")
    messages = []
    header = _OLSR_MESSAGE_HEADER
    offset = _OLSR_PACKET_HEADER.size
    while offset < total:
        if total - offset < header.size:
            raise _truncated(header.size, total - offset)
        msg_type, vtime, size, orig_ip, ttl, hops, seq = header.unpack_from(data, offset)
        offset += header.size
        body_len = size - header.size
        if body_len < 0:
            raise CodecError(f"OLSR message size too small: {size}")
        if total - offset < body_len:
            raise _truncated(body_len, total - offset)
        messages.append(
            OlsrMessage(
                msg_type, decode_ip(orig_ip), seq, data[offset : offset + body_len],
                _decode_vtime(vtime), ttl, hops,
            )
        )
        offset += body_len
    return packet_seq, tuple(messages)


def _truncated(wanted: int, left: int) -> CodecError:
    return CodecError(f"truncated message: wanted {wanted} bytes, {left} left")
