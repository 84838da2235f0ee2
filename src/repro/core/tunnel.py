"""Layer-2 tunnel between MANET nodes and Internet gateways.

The Gateway Provider runs a :class:`TunnelServer`; the Connection Provider
on every other node opens a :class:`TunnelClient` to it. The client gains
an Internet-routable address on a virtual interface plus a default route,
so *any* application traffic to the Internet is transparently encapsulated
over the MANET to the gateway, which forwards it into the Internet cloud —
and vice versa. This is what makes a node "automatically attached to the
Internet" in the paper's words.

Control protocol (UDP :data:`PORT_SIPHOC_CTRL`): REQUEST -> ACK(lease) or
NAK; RELEASE. Data plane (UDP :data:`PORT_SIPHOC_TUNNEL`): encapsulated IP
packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import CodecError, GatewayError, PortInUseError
from repro.netsim.internet import InternetCloud
from repro.netsim.node import Node
from repro.netsim.packet import (
    Datagram,
    PORT_SIPHOC_CTRL,
    PORT_SIPHOC_TUNNEL,
    Packet,
    is_manet_address,
)
from repro.routing.wire import Reader, Writer

CTRL_REQUEST = 1
CTRL_ACK = 2
CTRL_NAK = 3
CTRL_RELEASE = 4


def encode_inner_packet(packet: Packet) -> bytes:
    """Serialize an IP packet for tunnel encapsulation."""
    writer = Writer()
    writer.ip(packet.src).ip(packet.dst).u8(max(0, min(255, packet.ttl)))
    writer.u16(packet.sport).u16(packet.dport)
    writer.u16(len(packet.data)).raw(packet.data)
    return writer.getvalue()


def decode_inner_packet(data: bytes, uids: Iterator[int] | None = None) -> Packet:
    """Parse an encapsulated packet.

    A gateway or client re-injects it into the run under a fresh uid drawn
    from ``uids``, its simulator's ``packet_uids``; without one (a
    dissector) the packet has uid 0.
    """
    reader = Reader(data)
    src = reader.ip()
    dst = reader.ip()
    ttl = reader.u8()
    sport = reader.u16()
    dport = reader.u16()
    length = reader.u16()
    payload = reader.raw(length)
    uid = 0 if uids is None else next(uids)
    return Packet(src=src, dst=dst, ttl=ttl, payload=Datagram(sport, dport, payload), uid=uid)


def _encode_ctrl(msg_type: int, address: str = "0.0.0.0", lease: int = 0) -> bytes:
    writer = Writer()
    writer.u8(msg_type).ip(address).u16(lease)
    return writer.getvalue()


def _decode_ctrl(data: bytes) -> tuple[int, str, int]:
    reader = Reader(data)
    return (reader.u8(), reader.ip(), reader.u16())


@dataclass
class TunnelLease:
    client_manet_ip: str
    tunnel_ip: str
    expires_at: float

    def is_active(self, now: float) -> bool:
        """A lease is dead *at* its expiry instant: active iff now < expires_at.

        Every lease-validity comparison goes through here so the boundary
        is decided once (``active_leases``, ``_expire_leases`` and the
        upstream data path can never disagree about an expiring lease).
        """
        return now < self.expires_at


class TunnelServer:
    """Gateway-side tunnel endpoint: allocates leases, relays both ways."""

    LEASE_TIME = 60.0

    def __init__(self, node: Node, cloud: InternetCloud) -> None:
        if node.wired_ip is None:
            raise GatewayError("tunnel server requires a wired (Internet) interface")
        self.node = node
        self.sim = node.sim
        self.cloud = cloud
        self._ctrl_socket = node.bind(PORT_SIPHOC_CTRL, self._on_ctrl)
        self._data_socket = node.bind(PORT_SIPHOC_TUNNEL, self._on_upstream)
        self._leases: dict[str, TunnelLease] = {}  # client manet ip -> lease
        self._by_tunnel_ip: dict[str, TunnelLease] = {}
        self._gc_task = node.sim.schedule_periodic(10.0, self._expire_leases)
        self.closed = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._gc_task.stop()
        for lease in list(self._leases.values()):
            self._drop_lease(lease)
        self._ctrl_socket.close()
        self._data_socket.close()

    @property
    def active_leases(self) -> list[TunnelLease]:
        now = self.sim.now
        return [lease for lease in self._leases.values() if lease.is_active(now)]

    @property
    def active_lease_count(self) -> int:
        """Number of currently active leases (metrics gauge; no mutation)."""
        now = self.sim.now
        return sum(1 for lease in self._leases.values() if lease.is_active(now))

    # -- control plane ----------------------------------------------------------
    def _on_ctrl(self, data: bytes, src_ip: str, sport: int) -> None:
        if self.closed:
            return
        try:
            msg_type, _, _ = _decode_ctrl(data)
        except CodecError:
            return
        if msg_type == CTRL_REQUEST:
            tracer = self.sim.tracer
            lease = self._leases.get(src_ip)
            if lease is None:
                tunnel_ip = self.cloud.allocate_ip()
                lease = TunnelLease(
                    client_manet_ip=src_ip,
                    tunnel_ip=tunnel_ip,
                    expires_at=self.sim.now + self.LEASE_TIME,
                )
                self._leases[src_ip] = lease
                self._by_tunnel_ip[tunnel_ip] = lease
                self.cloud.attach_endpoint(tunnel_ip, self._make_downstream(lease))
                self.node.stats.increment("tunnel.leases_granted")
                if tracer is not None:
                    tracer.emit(
                        "tunnel.lease", self.node.ip, client=src_ip,
                        tunnel_ip=lease.tunnel_ip, renewed=False,
                    )
            else:
                lease.expires_at = self.sim.now + self.LEASE_TIME
                if tracer is not None:
                    tracer.emit(
                        "tunnel.lease", self.node.ip, client=src_ip,
                        tunnel_ip=lease.tunnel_ip, renewed=True,
                    )
            self._ctrl_socket.send(
                src_ip,
                sport,
                _encode_ctrl(CTRL_ACK, lease.tunnel_ip, int(self.LEASE_TIME)),
            )
        elif msg_type == CTRL_RELEASE:
            lease = self._leases.get(src_ip)
            if lease is not None:
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.emit(
                        "tunnel.release", self.node.ip, client=src_ip,
                        tunnel_ip=lease.tunnel_ip,
                    )
                self._drop_lease(lease)

    def _drop_lease(self, lease: TunnelLease) -> None:
        self._leases.pop(lease.client_manet_ip, None)
        self._by_tunnel_ip.pop(lease.tunnel_ip, None)
        self.cloud.detach_endpoint(lease.tunnel_ip)

    def _expire_leases(self) -> None:
        now = self.sim.now
        for lease in list(self._leases.values()):
            if not lease.is_active(now):
                self._drop_lease(lease)
                self.node.stats.increment("tunnel.leases_expired")
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.emit(
                        "tunnel.lease_expired", self.node.ip,
                        client=lease.client_manet_ip, tunnel_ip=lease.tunnel_ip,
                    )

    # -- data plane ------------------------------------------------------------------
    def _on_upstream(self, data: bytes, src_ip: str, sport: int) -> None:
        """Client -> Internet: decapsulate and inject into the cloud."""
        if self.closed:
            return
        try:
            inner = decode_inner_packet(data, self.sim.packet_uids)
        except CodecError:
            self.node.stats.increment("tunnel.bad_frames")
            return
        lease = self._leases.get(src_ip)
        if lease is not None and not lease.is_active(self.sim.now):
            self._drop_lease(lease)
            self.node.stats.increment("tunnel.leases_expired")
            lease = None
        if lease is None or inner.src != lease.tunnel_ip:
            # A NACK tells the client its lease is gone (e.g. this gateway
            # restarted, or the lease expired): it can tear down and
            # re-request immediately instead of waiting for the liveness
            # timeout while its upstream traffic silently blackholes.
            self.node.stats.increment("tunnel.unauthorized_frames")
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit("tunnel.nack", self.node.ip, client=src_ip)
            self._ctrl_socket.send(src_ip, PORT_SIPHOC_CTRL, _encode_ctrl(CTRL_NAK))
            return
        self.node.stats.increment("tunnel.upstream_packets")
        self.cloud.send(inner)

    def _make_downstream(self, lease: TunnelLease) -> Callable[[Packet], None]:
        def downstream(packet: Packet) -> None:
            """Internet -> client: encapsulate over the MANET."""
            if self.closed:
                return
            self.node.stats.increment("tunnel.downstream_packets")
            self._data_socket.send(
                lease.client_manet_ip, PORT_SIPHOC_TUNNEL, encode_inner_packet(packet)
            )

        return downstream


class TunnelClient:
    """Client-side tunnel endpoint: a virtual Internet interface on a node."""

    REQUEST_TIMEOUT = 3.0
    RENEW_INTERVAL = 20.0

    def __init__(self, node: Node, gateway_ip: str) -> None:
        self.node = node
        self.sim = node.sim
        self.gateway_ip = gateway_ip
        self.tunnel_ip: str | None = None
        self._ctrl_socket = node.bind_ephemeral(self._on_ctrl)
        self._data_socket = node.bind(PORT_SIPHOC_TUNNEL, self._on_downstream)
        # Unsolicited gateway NACKs (lease lost server-side) arrive on the
        # well-known control port, not our ephemeral request socket. Client
        # nodes never run a TunnelServer, so the port is normally free.
        try:
            self._nack_socket = node.bind(PORT_SIPHOC_CTRL, self._on_ctrl)
        except PortInUseError:
            self._nack_socket = None
        self._renew_task = None
        self._connect_callback: Callable[[bool], None] | None = None
        self._connect_timer = None
        self.closed = False
        self.last_ack_at: float | None = None
        self.on_disconnect: Callable[[], None] | None = None

    @property
    def connected(self) -> bool:
        return self.tunnel_ip is not None and not self.closed

    def connect(self, callback: Callable[[bool], None] | None = None) -> None:
        """Request a lease from the gateway; ``callback(success)`` when done."""
        self._connect_callback = callback
        self._ctrl_socket.send(self.gateway_ip, PORT_SIPHOC_CTRL, _encode_ctrl(CTRL_REQUEST))
        self._connect_timer = self.sim.schedule(self.REQUEST_TIMEOUT, self._connect_timeout)

    def _connect_timeout(self) -> None:
        if self.tunnel_ip is None and self._connect_callback is not None:
            callback, self._connect_callback = self._connect_callback, None
            callback(False)

    def _on_ctrl(self, data: bytes, src_ip: str, sport: int) -> None:
        if self.closed or src_ip != self.gateway_ip:
            return
        try:
            msg_type, address, lease = _decode_ctrl(data)
        except CodecError:
            return
        if msg_type == CTRL_NAK:
            self.node.stats.increment("tunnel.nacks_received")
            if self.tunnel_ip is not None:
                # The gateway no longer honors our lease: tear down now so
                # the Connection Provider can re-request without waiting
                # out the liveness deadline.
                self.disconnect()
            elif self._connect_callback is not None:
                callback, self._connect_callback = self._connect_callback, None
                if self._connect_timer is not None:
                    self._connect_timer.cancel()
                callback(False)
            return
        if msg_type != CTRL_ACK:
            return
        self.last_ack_at = self.sim.now
        first_ack = self.tunnel_ip is None
        if first_ack:
            self.tunnel_ip = address
            self.node.add_local_address(address)
            self.node.set_default_route("tunnel", self._upstream, priority=10)
            self._renew_task = self.sim.schedule_periodic(self.RENEW_INTERVAL, self._renew)
            self.node.stats.increment("tunnel.connected")
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "tunnel.connected", self.node.ip, tunnel_ip=address,
                    gateway=self.gateway_ip,
                )
            if self._connect_timer is not None:
                self._connect_timer.cancel()
            if self._connect_callback is not None:
                callback, self._connect_callback = self._connect_callback, None
                callback(True)

    def _renew(self) -> None:
        self._ctrl_socket.send(self.gateway_ip, PORT_SIPHOC_CTRL, _encode_ctrl(CTRL_REQUEST))

    def disconnect(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._renew_task is not None:
            self._renew_task.stop()
        self._ctrl_socket.send(self.gateway_ip, PORT_SIPHOC_CTRL, _encode_ctrl(CTRL_RELEASE))
        if self.tunnel_ip is not None:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "tunnel.disconnected", self.node.ip, tunnel_ip=self.tunnel_ip,
                    gateway=self.gateway_ip,
                )
            self.node.remove_local_address(self.tunnel_ip)
            self.node.clear_default_route("tunnel")
            self.tunnel_ip = None
        self._ctrl_socket.close()
        self._data_socket.close()
        if self._nack_socket is not None:
            self._nack_socket.close()
        if self.on_disconnect is not None:
            self.on_disconnect()

    # -- data plane ----------------------------------------------------------------
    def _upstream(self, packet: Packet) -> None:
        """Default-route hook: encapsulate Internet-bound traffic."""
        if not self.connected:
            self.node.stats.increment("tunnel.dropped_no_lease")
            return
        assert self.tunnel_ip is not None
        if is_manet_address(packet.src) or packet.src == "0.0.0.0":
            # Source NAT onto the tunnel interface so replies route back.
            packet = Packet(
                src=self.tunnel_ip,
                dst=packet.dst,
                payload=packet.payload,
                ttl=packet.ttl,
                uid=packet.uid,
            )
        self.node.stats.increment("tunnel.upstream_packets")
        self._data_socket.send(self.gateway_ip, PORT_SIPHOC_TUNNEL, encode_inner_packet(packet))

    def _on_downstream(self, data: bytes, src_ip: str, sport: int) -> None:
        if self.closed or src_ip != self.gateway_ip:
            return
        try:
            inner = decode_inner_packet(data, self.sim.packet_uids)
        except CodecError:
            self.node.stats.increment("tunnel.bad_frames")
            return
        self.node.stats.increment("tunnel.downstream_packets")
        self.node.receive_wired(inner)
