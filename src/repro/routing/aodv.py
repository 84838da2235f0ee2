"""AODV — Ad hoc On-demand Distance Vector routing (RFC 3561 core).

Implements route discovery (RREQ flood / RREP unicast), sequence-number
route freshness rules, expanding packet buffering during discovery, route
error propagation on link failure, optional hello beacons, and duplicate
suppression. Piggybacked extensions received on RREQ/RREP are preserved
verbatim when the message is re-flooded/forwarded, which is what lets the
SIPHoc handler plugin ride lookups on route discoveries (Figure 5 of the
paper shows exactly such an RREP).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CodecError
from repro.netsim.holdtable import HoldTable
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST, Packet
from repro.routing.base import Route, RoutingProtocol
from repro.routing.messages import (
    RREQ_FLAG_DEST_ONLY,
    RREQ_FLAG_UNKNOWN_SEQ,
    Extension,
    Rerr,
    Rrep,
    Rreq,
    decode_aodv,
    encode_aodv,
)

#: Reserved anycast address used by SIPHoc to address "whoever offers the
#: service" — RREQs for it flood the network and any node may answer.
SLP_ANYCAST = "192.168.255.254"

AODV_PORT = 654


@dataclass
class _PendingDiscovery:
    retries: int = 0
    buffered: list[Packet] = field(default_factory=list)
    timer: object | None = None
    started_at: float = 0.0


class Aodv(RoutingProtocol):
    """An AODV routing daemon bound to UDP port 654 on its node."""

    name = "aodv"
    port = AODV_PORT

    # Protocol constants (RFC 3561 defaults, lightly adapted to simulation).
    ACTIVE_ROUTE_TIMEOUT = 6.0
    MY_ROUTE_TIMEOUT = 12.0
    NET_DIAMETER = 35
    NODE_TRAVERSAL_TIME = 0.04
    NET_TRAVERSAL_TIME = 2 * NODE_TRAVERSAL_TIME * NET_DIAMETER
    PATH_DISCOVERY_TIME = 2 * NET_TRAVERSAL_TIME
    RREQ_RETRIES = 2
    HELLO_INTERVAL = 1.0
    ALLOWED_HELLO_LOSS = 2
    MAX_BUFFERED_PACKETS = 32

    def __init__(
        self,
        node: Node,
        use_hello: bool = False,
        net_diameter: int | None = None,
    ) -> None:
        super().__init__(node)
        self.use_hello = use_hello
        # RFC 3561 sizes the RREQ retry timeout for the *configured* network
        # diameter. The class default (35 hops -> 2.8 s) is absurdly long for
        # a small testbed: one lost RREQ turns a 50 ms fade into a multi-
        # second blackout. Scenarios that know their diameter pass it here.
        diameter = net_diameter if net_diameter is not None else self.NET_DIAMETER
        self.net_traversal_time = 2 * self.NODE_TRAVERSAL_TIME * diameter
        self.seq_no = 1
        self._rreq_id = 0
        # (originator, RREQ id) of each flood handled, held for
        # PATH_DISCOVERY_TIME (RFC 3561 §6.3): a restarted daemon reuses ids.
        self._rreq_seen = HoldTable(self.PATH_DISCOVERY_TIME)
        self._pending: dict[str, _PendingDiscovery] = {}
        self._retried_uids: set[int] = set()
        self._hello_task = None

    @property
    def pending_discovery_count(self) -> int:
        """Route discoveries in flight (metrics gauge)."""
        return len(self._pending)

    # -- lifecycle -------------------------------------------------------------
    def _on_start(self) -> None:
        if self.use_hello:
            self._hello_task = self.sim.schedule_periodic(
                self.HELLO_INTERVAL, self._send_hello, jitter=0.1
            )

    def _on_stop(self) -> None:
        if self._hello_task is not None:
            self._hello_task.stop()
            self._hello_task = None
        # A stopped daemon must not keep re-flooding RREQs: cancel every
        # pending discovery's retry timer and drop its buffered packets
        # (a restarted node gets a brand-new daemon on the same port).
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()

    # -- IP-layer interface -------------------------------------------------------
    def dispatch(self, packet: Packet) -> None:
        if not self._started:
            return
        # Usable-route lookup and active-route refresh, inlined: this runs
        # once per hop of every data packet.
        now = self.sim.now
        route = self.table.get(packet.dst)
        if route is not None and route.valid and now < route.expires_at:
            refreshed = now + self.ACTIVE_ROUTE_TIMEOUT
            if refreshed > route.expires_at:
                route.expires_at = refreshed
            self.node.link_send(route.next_hop, packet, self._on_link_failure)
            return
        tracer = self.sim.tracer
        if tracer is not None and route is not None:
            tracer.emit(
                "aodv.route_expired", self.node.ip, dest=packet.dst, valid=route.valid,
            )
        self._buffer_packet(packet)

    def _buffer_packet(self, packet: Packet) -> None:
        pending = self._pending.get(packet.dst)
        if pending is None:
            pending = _PendingDiscovery(started_at=self.sim.now)
            self._pending[packet.dst] = pending
            self._send_rreq(packet.dst, retry=0)
        if len(pending.buffered) >= self.MAX_BUFFERED_PACKETS:
            pending.buffered.pop(0)
            self.node.stats.increment("aodv.buffer_overflow")
        pending.buffered.append(packet)

    # -- route discovery -----------------------------------------------------------
    def _send_rreq(self, dest: str, retry: int) -> None:
        self.seq_no += 1
        self._rreq_id += 1
        known = self.table.get(dest)
        flags = 0
        dest_seq = 0
        if known is not None:
            dest_seq = known.seq_no
        else:
            flags |= RREQ_FLAG_UNKNOWN_SEQ
        rreq = Rreq(
            rreq_id=self._rreq_id,
            dest_ip=dest,
            dest_seq=dest_seq,
            orig_ip=self.node.ip,
            orig_seq=self.seq_no,
            hop_count=0,
            flags=flags,
        )
        self.node.stats.increment("aodv.rreq_originated")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "aodv.rreq", self.node.ip, dest=dest, rreq_id=self._rreq_id,
                retry=retry,
            )
        self.send_control(BROADCAST, encode_aodv(rreq), ttl=self.NET_DIAMETER)
        timeout = self.net_traversal_time * (2**retry)
        pending = self._pending.get(dest)
        if pending is not None:
            pending.retries = retry
            pending.timer = self.sim.schedule(timeout, self._discovery_timeout, dest, retry)

    def _discovery_timeout(self, dest: str, retry: int) -> None:
        if not self.started:
            return
        pending = self._pending.get(dest)
        if pending is None or pending.retries != retry:
            return
        if retry < self.RREQ_RETRIES:
            self._send_rreq(dest, retry + 1)
            return
        del self._pending[dest]
        self.node.stats.increment("aodv.discovery_failed")
        self.node.stats.increment("ip.no_route", len(pending.buffered))
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "aodv.discovery_failed", self.node.ip, dest=dest,
                dropped=len(pending.buffered),
            )

    def discover(self, dest: str) -> None:
        """Proactively start a route discovery without sending data."""
        if self.table.lookup(dest, self.sim.now) is not None:
            return
        if dest not in self._pending:
            self._pending[dest] = _PendingDiscovery(started_at=self.sim.now)
            self._send_rreq(dest, retry=0)

    def next_rreq_id(self, base: int = 1 << 24) -> int:
        """Allocate an RREQ id from the plugin range (disjoint from daemon ids)."""
        self._rreq_id = max(self._rreq_id + 1, base)
        return self._rreq_id

    # -- control-plane receive ---------------------------------------------------------
    def _on_datagram(self, data: bytes, src_ip: str, sport: int) -> None:
        if not self._started:
            return
        try:
            message, extensions = decode_aodv(data)
        except CodecError:
            self.node.stats.increment("aodv.malformed")
            return
        if isinstance(message, Rreq):
            self._handle_rreq(message, src_ip, extensions)
        elif isinstance(message, Rrep):
            self._handle_rrep(message, src_ip, extensions)
        elif isinstance(message, Rerr):
            self._handle_rerr(message, src_ip)

    def _handle_rreq(
        self, rreq: Rreq, src_ip: str, extensions: tuple[Extension, ...]
    ) -> None:
        self._update_route(src_ip, src_ip, 1, 0, self.ACTIVE_ROUTE_TIMEOUT)
        if rreq.orig_ip == self.node.ip:
            return
        key = (rreq.orig_ip, rreq.rreq_id)
        now = self.sim.now
        if self._rreq_seen.holds(key, now):
            return
        self._rreq_seen.add(key, now)
        hop_count = rreq.hop_count + 1
        self._update_route(
            rreq.orig_ip, src_ip, hop_count, rreq.orig_seq, self.ACTIVE_ROUTE_TIMEOUT
        )
        if rreq.dest_ip == self.node.ip:
            self.seq_no = max(self.seq_no, rreq.dest_seq)
            self._originate_rrep(rreq, hop_count_to_dest=0, dest_seq=self.seq_no)
            return
        if not rreq.dest_only:
            route = self.table.lookup(rreq.dest_ip, now)
            if (
                route is not None
                and not rreq.unknown_seq
                and route.seq_no >= rreq.dest_seq
            ):
                self._originate_rrep(
                    rreq, hop_count_to_dest=route.hop_count, dest_seq=route.seq_no
                )
                return
        if hop_count >= self.NET_DIAMETER:
            return
        forwarded = Rreq(
            rreq_id=rreq.rreq_id,
            dest_ip=rreq.dest_ip,
            dest_seq=rreq.dest_seq,
            orig_ip=rreq.orig_ip,
            orig_seq=rreq.orig_seq,
            hop_count=hop_count,
            flags=rreq.flags,
        )
        self.node.stats.increment("aodv.rreq_forwarded")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "aodv.rreq_forward", self.node.ip, dest=rreq.dest_ip,
                orig=rreq.orig_ip, rreq_id=rreq.rreq_id, hop_count=hop_count,
            )
        self.send_control(
            BROADCAST, encode_aodv(forwarded, extensions), ttl=self.NET_DIAMETER
        )

    def _originate_rrep(self, rreq: Rreq, hop_count_to_dest: int, dest_seq: int) -> None:
        reverse = self.table.lookup(rreq.orig_ip, self.sim.now)
        if reverse is None:
            return
        rrep = Rrep(
            dest_ip=rreq.dest_ip,
            dest_seq=dest_seq,
            orig_ip=rreq.orig_ip,
            lifetime_ms=int(self.MY_ROUTE_TIMEOUT * 1000),
            hop_count=hop_count_to_dest,
        )
        self.node.stats.increment("aodv.rrep_originated")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "aodv.rrep", self.node.ip, dest=rreq.dest_ip, orig=rreq.orig_ip,
                hop_count=hop_count_to_dest, dest_seq=dest_seq,
            )
        self.send_control(reverse.next_hop, encode_aodv(rrep), ttl=self.NET_DIAMETER)

    def _handle_rrep(
        self, rrep: Rrep, src_ip: str, extensions: tuple[Extension, ...]
    ) -> None:
        if rrep.is_hello():
            self._update_neighbor(
                src_ip,
                lifetime=(1 + self.ALLOWED_HELLO_LOSS) * self.HELLO_INTERVAL,
                seq_no=rrep.dest_seq,
            )
            return
        self._update_neighbor(src_ip)
        hop_count = rrep.hop_count + 1
        lifetime = rrep.lifetime_ms / 1000.0
        self._update_route(rrep.dest_ip, src_ip, hop_count, rrep.dest_seq, lifetime)
        if rrep.orig_ip == self.node.ip:
            self._discovery_complete(rrep.dest_ip)
            return
        reverse = self.table.lookup(rrep.orig_ip, self.sim.now)
        if reverse is None:
            self.node.stats.increment("aodv.rrep_no_reverse_route")
            return
        forward = self.table.get(rrep.dest_ip)
        if forward is not None:
            forward.precursors.add(reverse.next_hop)
        forwarded = Rrep(
            dest_ip=rrep.dest_ip,
            dest_seq=rrep.dest_seq,
            orig_ip=rrep.orig_ip,
            lifetime_ms=rrep.lifetime_ms,
            hop_count=hop_count,
        )
        self.node.stats.increment("aodv.rrep_forwarded")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "aodv.rrep_forward", self.node.ip, dest=rrep.dest_ip,
                orig=rrep.orig_ip, hop_count=hop_count,
            )
        self.send_control(
            reverse.next_hop, encode_aodv(forwarded, extensions), ttl=self.NET_DIAMETER
        )

    def _discovery_complete(self, dest: str) -> None:
        pending = self._pending.pop(dest, None)
        if pending is None:
            return
        self.node.stats.sample("aodv.discovery_latency", self.sim.now - pending.started_at)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "aodv.discovery_complete", self.node.ip, dest=dest,
                latency=self.sim.now - pending.started_at,
                flushed=len(pending.buffered),
            )
        for packet in pending.buffered:
            self.dispatch(packet)

    def _handle_rerr(self, rerr: Rerr, src_ip: str) -> None:
        propagate: list[tuple[str, int]] = []
        for dest, seq in rerr.unreachable:
            route = self.table.get(dest)
            if route is None or not route.valid or route.next_hop != src_ip:
                continue
            route.valid = False
            route.seq_no = max(route.seq_no, seq)
            propagate.append((dest, route.seq_no))
        if propagate:
            self.node.stats.increment("aodv.rerr_forwarded")
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "aodv.rerr", self.node.ip, origin=False,
                    unreachable=sorted(dest for dest, _ in propagate),
                )
            self.send_control(
                BROADCAST, encode_aodv(Rerr(unreachable=tuple(propagate))), ttl=1
            )

    # -- link failure ---------------------------------------------------------------
    def _on_link_failure(self, next_hop: str, packet: Packet) -> None:
        if not self.started:
            return  # TX-failure feedback arriving after the daemon stopped
        now = self.sim.now
        broken = self.table.routes_via(next_hop, now)
        unreachable = []
        for route in broken:
            route.valid = False
            route.seq_no += 1  # destinations become "newer unreachable"
            unreachable.append((route.destination, route.seq_no))
        if unreachable:
            self.node.stats.increment("aodv.rerr_originated")
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "aodv.rerr", self.node.ip, origin=True, failed_hop=next_hop,
                    unreachable=sorted(dest for dest, _ in unreachable),
                )
            self.send_control(
                BROADCAST, encode_aodv(Rerr(unreachable=tuple(unreachable))), ttl=1
            )
        if packet.dport == self.port:
            return  # do not re-discover for lost control traffic
        if packet.uid in self._retried_uids:
            self.node.stats.increment("aodv.packet_lost")
            return
        if len(self._retried_uids) > 4096:
            self._retried_uids.clear()
        self._retried_uids.add(packet.uid)
        self.dispatch(packet)

    # -- hello beacons ----------------------------------------------------------------
    def _send_hello(self) -> None:
        hello = Rrep(
            dest_ip=self.node.ip,
            dest_seq=self.seq_no,
            orig_ip=self.node.ip,
            lifetime_ms=int((1 + self.ALLOWED_HELLO_LOSS) * self.HELLO_INTERVAL * 1000),
            hop_count=0,
        )
        self.send_control(BROADCAST, encode_aodv(hello), ttl=1)

    # -- route table helpers ----------------------------------------------------------
    def _update_neighbor(
        self, neighbor_ip: str, lifetime: float | None = None, seq_no: int | None = None
    ) -> None:
        self._update_route(
            neighbor_ip,
            neighbor_ip,
            hop_count=1,
            seq_no=seq_no if seq_no is not None else 0,
            lifetime=lifetime if lifetime is not None else self.ACTIVE_ROUTE_TIMEOUT,
        )

    def _update_route(
        self, dest: str, next_hop: str, hop_count: int, seq_no: int, lifetime: float
    ) -> None:
        if dest == self.node.ip:
            return
        now = self.sim.now
        existing = self.table.get(dest)
        if existing is not None and existing.valid and now < existing.expires_at:
            existing_seq = existing.seq_no
            if not (
                seq_no > existing_seq
                or existing_seq == 0
                or (seq_no == existing_seq and hop_count < existing.hop_count)
            ):
                # Keep the fresher/shorter route; just extend its life.
                expires_at = now + lifetime
                if expires_at > existing.expires_at:
                    existing.expires_at = expires_at
                return
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "aodv.route_update", self.node.ip, dest=dest, next_hop=next_hop,
                hop_count=hop_count, seq_no=seq_no,
            )
        if existing is None:
            self.table.upsert(Route(dest, next_hop, hop_count, seq_no, now + lifetime))
            return
        # Refreshed in place, precursors kept: no caller holds an entry
        # across events, so nothing can tell this from a replacement.
        existing.next_hop = next_hop
        existing.hop_count = hop_count
        existing.seq_no = seq_no
        existing.expires_at = now + lifetime
        existing.valid = True
