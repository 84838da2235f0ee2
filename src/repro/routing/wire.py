"""Low-level binary encoding helpers shared by the routing codecs.

Addresses are encoded as 4-byte IPv4, multi-byte integers are big-endian
(network order), matching RFC 3561 / RFC 3626 conventions.
"""

from __future__ import annotations

import functools
import struct

from repro.errors import CodecError

#: Entries kept by each memoized decoder: the datagram decoders
#: (``decode_aodv``, ``decode_olsr_packet``, ``decode_slp``), the OLSR body
#: decoders and the address codec below. Every neighbour of a broadcast
#: decodes the same bytes, so a small cache catches nearly all repeats.
DECODE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def encode_ip(ip: str) -> bytes:
    """The 4 bytes of a dotted quad; memoized.

    Only the text :func:`decode_ip` gives back is accepted, so an address
    has one spelling: no sign, space, underscore, leading zero or
    non-ASCII digit.
    """
    try:
        data = bytes(int(part) for part in ip.split("."))
    except ValueError as exc:
        raise CodecError(f"invalid IPv4 address {ip!r}") from exc
    if len(data) != 4 or _ip_text(data) != ip:
        raise CodecError(f"invalid IPv4 address {ip!r}")
    return data


def decode_ip(data: bytes, offset: int = 0) -> str:
    if len(data) < offset + 4:
        raise CodecError("truncated IPv4 address")
    return _ip_text(data[offset : offset + 4])


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def _ip_text(data: bytes) -> str:
    return ".".join(str(b) for b in data)


class Reader:
    """Sequential binary reader with bounds checking."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    @property
    def remaining(self) -> int:
        return len(self.data) - self.offset

    def _take(self, count: int) -> bytes:
        if self.remaining < count:
            raise CodecError(
                f"truncated message: wanted {count} bytes, {self.remaining} left"
            )
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack("!H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("!I", self._take(4))[0]

    def ip(self) -> str:
        return decode_ip(self._take(4))

    def raw(self, count: int) -> bytes:
        return self._take(count)

    def rest(self) -> bytes:
        return self._take(self.remaining)


def _out_of_range(field: str, value: object) -> CodecError:
    return CodecError(f"{value!r} does not fit a {field} wire field")


class Writer:
    """Sequential binary writer; a field value out of range raises CodecError."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> "Writer":
        try:
            self._parts.append(struct.pack("!B", value))
        except struct.error as exc:
            raise _out_of_range("u8", value) from exc
        return self

    def u16(self, value: int) -> "Writer":
        try:
            self._parts.append(struct.pack("!H", value))
        except struct.error as exc:
            raise _out_of_range("u16", value) from exc
        return self

    def u32(self, value: int) -> "Writer":
        try:
            self._parts.append(struct.pack("!I", value))
        except struct.error as exc:
            raise _out_of_range("u32", value) from exc
        return self

    def ip(self, ip: str) -> "Writer":
        self._parts.append(encode_ip(ip))
        return self

    def raw(self, data: bytes) -> "Writer":
        self._parts.append(data)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)
