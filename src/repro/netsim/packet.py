"""IP/UDP packet model.

Every message in the system travels as a UDP datagram inside an IP packet,
mirroring how SIPHoc's real deployment works: AODV and OLSR daemons use their
IANA ports (654 and 698), SIP uses 5060, SLP 427 and RTP uses dynamic ports.
Sizes are computed from the *serialized* payload plus standard framing so
that overhead measurements are honest.
"""

from __future__ import annotations

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


class Datagram:
    """A UDP datagram: source/destination ports and raw payload bytes."""

    __slots__ = ("sport", "dport", "data", "size")

    def __init__(self, sport: int, dport: int, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"datagram payload must be bytes, got {type(data)!r}")
        self.sport = sport
        self.dport = dport
        self.data = bytes(data)
        self.size = len(self.data) + UDP_HEADER_BYTES

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Datagram):
            return NotImplemented
        return (self.sport, self.dport, self.data) == (other.sport, other.dport, other.data)

    def __repr__(self) -> str:
        return f"Datagram(sport={self.sport!r}, dport={self.dport!r}, data={self.data!r})"


class Packet:
    """An IPv4 packet carrying a UDP datagram.

    ``uid`` identifies the original packet across hops; forwarded copies keep
    the uid, which lets capture tooling correlate multihop transit. A node
    that originates a packet draws its uid from the run's
    ``Simulator.packet_uids``; a packet built outside a run has uid 0.

    ``size`` (on-air bytes, including MAC/IP/UDP framing) and the ports are
    read once from the datagram at construction: payload bytes are
    immutable, and hook mutation goes through :meth:`with_data`, which
    builds a fresh packet.
    """

    __slots__ = ("src", "dst", "payload", "ttl", "uid", "sport", "dport", "data", "size")

    def __init__(
        self,
        src: str,
        dst: str,
        payload: Datagram,
        ttl: int = DEFAULT_TTL,
        uid: int = 0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.ttl = ttl
        self.uid = uid
        self.sport = payload.sport
        self.dport = payload.dport
        self.data = payload.data
        self.size = len(payload.data) + FRAMING_BYTES

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return (self.src, self.dst, self.payload, self.ttl, self.uid) == (
            other.src, other.dst, other.payload, other.ttl, other.uid
        )

    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def forwarded(self) -> "Packet":
        """Return the next-hop copy of this packet with TTL decremented."""
        return Packet(self.src, self.dst, self.payload, self.ttl - 1, self.uid)

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
