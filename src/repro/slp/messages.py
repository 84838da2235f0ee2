"""SLP wire messages (RFC 2608 shape, compact binary encoding).

These encodings are used both by the standalone multicast SLP agent (the
baseline the related work criticises as too chatty for MANETs) and as the
*payload of SIPHoc's piggyback extensions* — so the packet analyzer can
dissect an AODV route reply and show the SLP service registration inside,
exactly like the Wireshark snapshot in Figure 5 of the paper.

``decode_slp`` is memoized on the message bytes, so the messages are frozen
and ``SrvRply.entries`` is a tuple: a decoded message may be shared by every
node that received the same routing packet.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import CodecError
from repro.routing.wire import DECODE_CACHE_SIZE, Reader, Writer
from repro.slp.service import ServiceEntry, ServiceUrl, format_attributes, parse_attributes

SLP_VERSION = 2

FN_SRV_RQST = 1
FN_SRV_RPLY = 2
FN_SRV_REG = 3
FN_SRV_DEREG = 4
FN_SRV_ACK = 5

FUNCTION_NAMES = {
    FN_SRV_RQST: "SrvRqst",
    FN_SRV_RPLY: "SrvRply",
    FN_SRV_REG: "SrvReg",
    FN_SRV_DEREG: "SrvDeReg",
    FN_SRV_ACK: "SrvAck",
}


def _write_string(writer: Writer, text: str) -> None:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise CodecError("SLP string too long")
    writer.u16(len(data)).raw(data)


def _read_string(reader: Reader) -> str:
    length = reader.u16()
    try:
        return reader.raw(length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"SLP string is not UTF-8: {exc}") from exc


@dataclass(frozen=True)
class SrvRqst:
    """Service request: who offers ``service_type`` matching ``predicate``?

    ``requester`` carries the originator's address so that replies can be
    unicast back when the request has been re-flooded by intermediate
    agents (the broadcast emulation of SLP multicast convergence).
    """

    xid: int
    service_type: str
    predicate: str = ""
    requester: str = ""


@dataclass(frozen=True)
class UrlEntry:
    """One service URL with its lifetime and attributes."""

    url: str
    lifetime: int
    attributes: str = ""

    def to_service_entry(self, now: float, origin: str) -> ServiceEntry:
        """A cache entry learned from ``origin``; raises SlpError on a bad URL."""
        return ServiceEntry(
            url=_parse_url(self.url),
            attributes=dict(_parse_attribute_items(self.attributes)),
            lifetime=float(self.lifetime),
            expires_at=now + self.lifetime,
            origin=origin,
        )

    @classmethod
    def from_service_entry(cls, entry: ServiceEntry, remaining: float) -> "UrlEntry":
        return cls(
            url=str(entry.url),
            lifetime=max(1, int(remaining)),
            attributes=format_attributes(entry.attributes),
        )


# Every neighbour of a flood parses the same piggybacked adverts, so the parses
# are memoized. ServiceUrl is frozen and may be shared; the attributes are
# cached as pairs, so each ServiceEntry still gets a dict of its own.
@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def _parse_url(text: str) -> ServiceUrl:
    return ServiceUrl.parse(text)


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def _parse_attribute_items(text: str) -> tuple[tuple[str, str], ...]:
    return tuple(parse_attributes(text).items())


@dataclass(frozen=True)
class SrvRply:
    """Service reply: matching URL entries."""

    xid: int
    entries: tuple[UrlEntry, ...] = ()
    error: int = 0


@dataclass(frozen=True)
class SrvReg:
    """Service registration (also the piggyback advert payload)."""

    xid: int
    entry: UrlEntry


@dataclass(frozen=True)
class SrvDeReg:
    """Service deregistration."""

    xid: int
    url: str


@dataclass(frozen=True)
class SrvAck:
    xid: int
    error: int = 0


SlpMessage = SrvRqst | SrvRply | SrvReg | SrvDeReg | SrvAck


def encode_slp(message: SlpMessage) -> bytes:
    writer = Writer()
    writer.u8(SLP_VERSION)
    if isinstance(message, SrvRqst):
        writer.u8(FN_SRV_RQST).u16(message.xid)
        _write_string(writer, message.service_type)
        _write_string(writer, message.predicate)
        _write_string(writer, message.requester)
    elif isinstance(message, SrvRply):
        writer.u8(FN_SRV_RPLY).u16(message.xid)
        writer.u16(message.error)
        writer.u16(len(message.entries))
        for entry in message.entries:
            writer.u16(entry.lifetime)
            _write_string(writer, entry.url)
            _write_string(writer, entry.attributes)
    elif isinstance(message, SrvReg):
        writer.u8(FN_SRV_REG).u16(message.xid)
        writer.u16(message.entry.lifetime)
        _write_string(writer, message.entry.url)
        _write_string(writer, message.entry.attributes)
    elif isinstance(message, SrvDeReg):
        writer.u8(FN_SRV_DEREG).u16(message.xid)
        _write_string(writer, message.url)
    elif isinstance(message, SrvAck):
        writer.u8(FN_SRV_ACK).u16(message.xid)
        writer.u16(message.error)
    else:  # pragma: no cover - defensive
        raise CodecError(f"unknown SLP message {message!r}")
    return writer.getvalue()


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def decode_slp(data: bytes) -> SlpMessage:
    """Parse one SLP message; memoized, so equal bytes share one result."""
    reader = Reader(data)
    version = reader.u8()
    if version != SLP_VERSION:
        raise CodecError(f"unsupported SLP version {version}")
    function = reader.u8()
    xid = reader.u16()
    if function == FN_SRV_RQST:
        return SrvRqst(
            xid=xid,
            service_type=_read_string(reader),
            predicate=_read_string(reader),
            requester=_read_string(reader),
        )
    if function == FN_SRV_RPLY:
        error = reader.u16()
        count = reader.u16()
        entries = []
        for _ in range(count):
            lifetime = reader.u16()
            url = _read_string(reader)
            attributes = _read_string(reader)
            entries.append(UrlEntry(url=url, lifetime=lifetime, attributes=attributes))
        return SrvRply(xid=xid, entries=tuple(entries), error=error)
    if function == FN_SRV_REG:
        lifetime = reader.u16()
        url = _read_string(reader)
        attributes = _read_string(reader)
        return SrvReg(xid=xid, entry=UrlEntry(url=url, lifetime=lifetime, attributes=attributes))
    if function == FN_SRV_DEREG:
        return SrvDeReg(xid=xid, url=_read_string(reader))
    if function == FN_SRV_ACK:
        return SrvAck(xid=xid, error=reader.u16())
    raise CodecError(f"unknown SLP function id {function}")
