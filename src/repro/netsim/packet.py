"""IP/UDP packet model.

Every message in the system travels as a UDP datagram inside an IP packet,
mirroring how SIPHoc's real deployment works: AODV and OLSR daemons use their
IANA ports (654 and 698), SIP uses 5060, SLP 427 and RTP uses dynamic ports.
Sizes are computed from the *serialized* payload plus standard framing so
that overhead measurements are honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.globalstate import registry

BROADCAST = "255.255.255.255"

# Well-known ports used throughout the system.
PORT_SLP = 427
PORT_AODV = 654
PORT_OLSR = 698
PORT_SIP = 5060
PORT_SIPHOC_TUNNEL = 5062
PORT_SIPHOC_CTRL = 5063

# Framing constants (bytes): 802.11 data header + LLC/SNAP, IPv4, UDP.
MAC_HEADER_BYTES = 34
IP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
FRAMING_BYTES = MAC_HEADER_BYTES + IP_HEADER_BYTES + UDP_HEADER_BYTES

DEFAULT_TTL = 64

_packet_ids = registry.counter("netsim.packet.uid", start=1)


@dataclass
class Datagram:
    """A UDP datagram: source/destination ports and raw payload bytes."""

    sport: int
    dport: int
    data: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.data, (bytes, bytearray)):
            raise TypeError(f"datagram payload must be bytes, got {type(self.data)!r}")
        self.data = bytes(self.data)

    @cached_property
    def size(self) -> int:
        return len(self.data) + UDP_HEADER_BYTES


@dataclass
class Packet:
    """An IPv4 packet carrying a UDP datagram.

    ``uid`` identifies the original packet across hops; forwarded copies keep
    the uid, which lets capture tooling correlate multihop transit.
    """

    src: str
    dst: str
    payload: Datagram
    ttl: int = DEFAULT_TTL
    uid: int = field(default_factory=_packet_ids.next)

    @cached_property
    def size(self) -> int:
        """On-air size in bytes, including MAC/IP/UDP framing.

        Cached: payload bytes are immutable, and hook mutation goes through
        :meth:`with_data`, which builds a fresh packet (and a fresh cache).
        """
        return len(self.payload.data) + FRAMING_BYTES

    @property
    def sport(self) -> int:
        return self.payload.sport

    @property
    def dport(self) -> int:
        return self.payload.dport

    @property
    def data(self) -> bytes:
        return self.payload.data

    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def forwarded(self) -> "Packet":
        """Return the next-hop copy of this packet with TTL decremented."""
        clone = Packet(self.src, self.dst, self.payload, self.ttl - 1, self.uid)
        size = self.__dict__.get("size")
        if size is not None:  # carry the size cache across hops (same payload)
            clone.__dict__["size"] = size
        return clone

    def with_data(self, data: bytes) -> "Packet":
        """Return a copy carrying different payload bytes (hook mutation)."""
        payload = Datagram(self.sport, self.dport, data)
        return Packet(self.src, self.dst, payload, self.ttl, self.uid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.uid} {self.src}:{self.sport} -> "
            f"{self.dst}:{self.dport}, {self.size}B, ttl={self.ttl})"
        )


def manet_ip(index: int) -> str:
    """Deterministic MANET address for node ``index`` (192.168.0.0/16)."""
    if not 0 <= index < 250 * 250:
        raise ValueError(f"node index out of range: {index}")
    return f"192.168.{index // 250}.{index % 250 + 1}"


def internet_ip(index: int) -> str:
    """Deterministic Internet address for host ``index`` (10.0.0.0/8)."""
    if not 0 <= index < 250 * 250:
        raise ValueError(f"host index out of range: {index}")
    return f"10.0.{index // 250}.{index % 250 + 1}"


def is_manet_address(ip: str) -> bool:
    return ip.startswith("192.168.")


def is_internet_address(ip: str) -> bool:
    return ip.startswith("10.")
