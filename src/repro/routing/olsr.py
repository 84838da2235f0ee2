"""OLSR — Optimized Link State Routing (RFC 3626 core).

Implements neighbor sensing via HELLO (asym -> sym two-way handshake),
multipoint relay (MPR) selection with the standard greedy cover, topology
dissemination via TC messages flooded through MPRs, duplicate suppression,
and shortest-path route calculation (a BFS: every link costs one hop).

Crucially for SIPHoc, the daemon implements the *default forwarding
algorithm*: messages of unknown type (such as the SLP piggyback message,
type 130) are flooded through the MPR backbone without being understood.
This is what gives MANET SLP network-wide proactive dissemination under
OLSR at near-zero extra packet cost.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from repro.errors import CodecError
from repro.netsim.holdtable import HoldTable
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST, Packet
from repro.routing.base import Route, RoutingProtocol
from repro.routing.messages import (
    LINK_MPR,
    LINK_SYM,
    OLSR_HELLO,
    OLSR_TC,
    HelloBody,
    OlsrMessage,
    TcBody,
    decode_olsr_packet,
    decode_tc_body,
    encode_hello_body,
    encode_olsr_packet,
    encode_tc_body,
    hello_view,
)
from repro.routing.wire import DECODE_CACHE_SIZE, encode_ip

OLSR_PORT = 698

#: The 2-hop entry of a neighbour never heard: no neighbours, long expired.
_NO_TWO_HOP: tuple[frozenset[str], float] = (frozenset(), 0.0)


@dataclass
class _LinkInfo:
    asym_until: float = 0.0
    sym_until: float = 0.0

    def is_sym(self, now: float) -> bool:
        return now < self.sym_until

    def is_heard(self, now: float) -> bool:
        return now < self.asym_until or now < self.sym_until


@dataclass
class _TopologyEntry:
    ansn: int
    selectors: frozenset[str] = frozenset()
    expires_at: float = 0.0


class Olsr(RoutingProtocol):
    """An OLSR routing daemon bound to UDP port 698 on its node."""

    name = "olsr"
    port = OLSR_PORT

    HELLO_INTERVAL = 2.0
    TC_INTERVAL = 5.0
    NEIGHB_HOLD_TIME = 3 * HELLO_INTERVAL
    TOP_HOLD_TIME = 3 * TC_INTERVAL
    DUP_HOLD_TIME = 30.0

    def __init__(self, node: Node) -> None:
        super().__init__(node)
        self._links: dict[str, _LinkInfo] = {}
        self._two_hop: dict[str, tuple[frozenset[str], float]] = {}
        self._mpr_set: set[str] = set()
        self._selectors: dict[str, float] = {}
        self._topology: dict[str, _TopologyEntry] = {}
        # RFC 3626 §3.4's duplicate set: (originator, message seq) as one int.
        self._duplicates = HoldTable(self.DUP_HOLD_TIME)
        self._msg_seq = itertools.count(1)
        self._pkt_seq = itertools.count(1)
        self._ansn = 0
        self._dirty = True
        # The route table is a function of the live link state alone. It is
        # rebuilt only when that state changed (``_stale``) or an entry the
        # last rebuild used has expired since (``_valid_until``).
        self._stale = True
        self._valid_until = 0.0
        # The MPR set likewise reads only the symmetric links and their 2-hop
        # sets: reselect when one of those changed (``_mprs_stale``) or one
        # the last selection read has expired since (``_mprs_valid_until``).
        self._mprs_stale = True
        self._mprs_valid_until = 0.0
        self._hello_task = None
        self._tc_task = None
        self._retried_uids: set[int] = set()

    @property
    def topology_size(self) -> int:
        """Known TC-advertised origins (metrics gauge)."""
        return len(self._topology)

    # -- lifecycle ------------------------------------------------------------
    def _on_start(self) -> None:
        self._hello_task = self.sim.schedule_periodic(
            self.HELLO_INTERVAL, self._send_hello, jitter=0.1, initial_delay=0.01
        )
        self._tc_task = self.sim.schedule_periodic(
            self.TC_INTERVAL, self._send_tc, jitter=0.1, initial_delay=0.5
        )

    def _on_stop(self) -> None:
        for task in (self._hello_task, self._tc_task):
            if task is not None:
                task.stop()
        self._hello_task = self._tc_task = None

    # -- IP-layer interface ------------------------------------------------------
    def dispatch(self, packet: Packet) -> None:
        if not self._started:
            return
        self._recompute_if_dirty()
        route = self.table.lookup(packet.dst, self.sim.now)
        if route is None:
            self.node.stats.increment("olsr.no_route")
            return
        self.node.link_send(route.next_hop, packet, self._on_link_failure)

    def route_to(self, destination: str):
        self._recompute_if_dirty()
        return super().route_to(destination)

    def _on_link_failure(self, next_hop: str, packet: Packet) -> None:
        if not self.started:
            return  # TX-failure feedback arriving after the daemon stopped
        link = self._links.get(next_hop)
        if link is not None:
            if link.is_sym(self.sim.now):
                self._stale = self._mprs_stale = True
            link.sym_until = 0.0
            link.asym_until = 0.0
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("olsr.link_failure", self.node.ip, peer=next_hop)
        self._dirty = True
        if packet.dport == self.port:
            return
        if packet.uid in self._retried_uids:
            self.node.stats.increment("olsr.packet_lost")
            return
        if len(self._retried_uids) > 4096:
            self._retried_uids.clear()
        self._retried_uids.add(packet.uid)
        self.dispatch(packet)

    # -- neighbor queries ----------------------------------------------------------
    def symmetric_neighbors(self) -> list[str]:
        now = self.sim.now
        return [ip for ip, link in self._links.items() if link.is_sym(now)]

    def mpr_selectors(self) -> list[str]:
        now = self.sim.now
        return [ip for ip, expiry in self._selectors.items() if expiry > now]

    @property
    def mpr_set(self) -> set[str]:
        return set(self._mpr_set)

    # -- message emission --------------------------------------------------------------
    def next_message_seq(self) -> int:
        return next(self._msg_seq) & 0xFFFF

    def send_packet(self, messages: tuple[OlsrMessage, ...] | list[OlsrMessage]) -> None:
        data = encode_olsr_packet(next(self._pkt_seq) & 0xFFFF, messages)
        self.send_control(BROADCAST, data, ttl=1)

    def _send_hello(self) -> None:
        now = self.sim.now
        links: dict[int, list[str]] = {}
        for ip, link in self._links.items():
            if link.is_sym(now):
                code = LINK_MPR if ip in self._mpr_set else LINK_SYM
            elif link.is_heard(now):
                code = 1  # LINK_ASYM
            else:
                continue
            links.setdefault(code, []).append(ip)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "olsr.hello", self.node.ip,
                links={str(code): sorted(ips) for code, ips in sorted(links.items())},
            )
        body = encode_hello_body(HelloBody(links=links))
        message = OlsrMessage(
            msg_type=OLSR_HELLO,
            orig_ip=self.node.ip,
            seq=self.next_message_seq(),
            body=body,
            vtime=self.NEIGHB_HOLD_TIME,
            ttl=1,
        )
        self.send_packet([message])

    def _send_tc(self) -> None:
        selectors = self.mpr_selectors()
        if not selectors:
            return
        self._ansn = (self._ansn + 1) & 0xFFFF
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "olsr.tc", self.node.ip, ansn=self._ansn,
                selectors=sorted(selectors),
            )
        body = encode_tc_body(TcBody(ansn=self._ansn, neighbors=sorted(selectors)))
        message = OlsrMessage(
            msg_type=OLSR_TC,
            orig_ip=self.node.ip,
            seq=self.next_message_seq(),
            body=body,
            vtime=self.TOP_HOLD_TIME,
            ttl=255,
        )
        self.send_packet([message])

    # -- receive path ---------------------------------------------------------------------
    def _on_datagram(self, data: bytes, src_ip: str, sport: int) -> None:
        if not self._started:
            return
        try:
            _, messages = decode_olsr_packet(data)
        except CodecError:
            self.node.stats.increment("olsr.malformed")
            return
        me = self.node.ip
        now = self.sim.now
        duplicates = self._duplicates
        forwarded: list[OlsrMessage] = []
        for message in messages:
            msg_type, orig_ip, seq, body, vtime, ttl, hops = message
            if orig_ip == me:
                continue
            # A HELLO travels one hop and is never relayed, so no node hears
            # one twice; every other message is held from its latest copy.
            if msg_type != OLSR_HELLO:
                dup_key = _origin_key(orig_ip) | seq
                is_duplicate = duplicates.holds(dup_key, now)
                duplicates.add(dup_key, now)
                if is_duplicate:
                    continue  # handled and, if due, relayed on its first copy
            self._process_message(message, src_ip)
            if self._should_forward(message, src_ip):
                forwarded.append(
                    OlsrMessage(msg_type, orig_ip, seq, body, vtime, ttl - 1, hops + 1)
                )
        if forwarded:
            self.node.stats.increment("olsr.messages_forwarded", len(forwarded))
            self.send_packet(forwarded)

    def _should_forward(self, message: OlsrMessage, src_ip: str) -> bool:
        """RFC 3626 default forwarding of a first copy: only for MPR selectors."""
        if message.ttl <= 1:
            return False
        if message.msg_type == OLSR_HELLO:
            return False
        link = self._links.get(src_ip)
        if link is None or not link.is_sym(self.sim.now):
            return False
        return src_ip in self._selectors and self._selectors[src_ip] > self.sim.now

    def _process_message(self, message: OlsrMessage, src_ip: str) -> None:
        if message.msg_type == OLSR_HELLO:
            self._process_hello(message, src_ip)
        elif message.msg_type == OLSR_TC:
            self._process_tc(message)
        # Unknown message types (e.g. SLP piggyback) are not processed here;
        # the netfilter INPUT hook has already seen them, and default
        # forwarding above floods them onward.

    def _process_hello(self, message: OlsrMessage, src_ip: str) -> None:
        try:
            listed, selected, two_hop = hello_view(message.body, self.node.ip)
        except CodecError:
            self.node.stats.increment("olsr.malformed")
            return
        now = self.sim.now
        expiry = now + self.NEIGHB_HOLD_TIME
        link = self._links.get(src_ip)
        if link is None:
            link = self._links[src_ip] = _LinkInfo()
        link.asym_until = expiry
        if listed:
            if _alters_graph(None, link.sym_until, None, expiry, now):
                self._stale = self._mprs_stale = True
            link.sym_until = expiry
        old_two_hop, old_expiry = self._two_hop.get(src_ip, _NO_TWO_HOP)
        if _alters_graph(old_two_hop, old_expiry, two_hop, expiry, now):
            self._stale = self._mprs_stale = True
        self._two_hop[src_ip] = (two_hop, expiry)
        if selected:
            self._selectors[src_ip] = expiry
        else:
            self._selectors.pop(src_ip, None)
        self._select_mprs()
        self._dirty = True

    def _process_tc(self, message: OlsrMessage) -> None:
        try:
            tc = decode_tc_body(message.body)
        except CodecError:
            self.node.stats.increment("olsr.malformed")
            return
        now = self.sim.now
        entry = self._topology.get(message.orig_ip)
        if entry is not None and entry.expires_at > now and _seq_newer(entry.ansn, tc.ansn):
            # A stale ANSN. Only a live entry rejects it (RFC 3626 §9.5: an
            # expired tuple is gone), so a restarted originator's ANSN, which
            # begins again at 1, is taken once its old entry expires.
            return
        new = _TopologyEntry(
            ansn=tc.ansn, selectors=frozenset(tc.neighbors), expires_at=now + message.vtime
        )
        old = entry if entry is not None else _TopologyEntry(ansn=0)
        if _alters_graph(old.selectors, old.expires_at, new.selectors, new.expires_at, now):
            self._stale = True
        self._topology[message.orig_ip] = new
        self._dirty = True

    # -- MPR selection -----------------------------------------------------------------------
    def _select_mprs(self) -> None:
        """Greedy MPR cover; a no-op while its inputs are unchanged."""
        now = self.sim.now
        if not self._mprs_stale and now < self._mprs_valid_until:
            return
        sym = set(self.symmetric_neighbors())
        coverage: dict[str, set[str]] = {}
        valid_until = math.inf
        for neighbor in sorted(sym):
            valid_until = min(valid_until, self._links[neighbor].sym_until)
            two_hop, expiry = self._two_hop.get(neighbor, _NO_TWO_HOP)
            if expiry <= now:
                continue
            valid_until = min(valid_until, expiry)
            coverage[neighbor] = {
                ip for ip in two_hop if ip != self.node.ip and ip not in sym
            }
        to_cover = set().union(*coverage.values()) if coverage else set()
        mprs: set[str] = set()
        covered: set[str] = set()
        # Nodes that are the sole reach to some 2-hop neighbor are mandatory.
        for target in to_cover:
            providers = [n for n, cov in coverage.items() if target in cov]
            if len(providers) == 1:
                mprs.add(providers[0])
        for mpr in sorted(mprs):
            covered |= coverage.get(mpr, set())
        # Greedily add the neighbor covering the most remaining 2-hop nodes.
        while covered < to_cover:
            best = max(
                (n for n in coverage if n not in mprs),
                key=lambda n: (len(coverage[n] - covered), n),
                default=None,
            )
            if best is None or not (coverage[best] - covered):
                break
            mprs.add(best)
            covered |= coverage[best]
        if mprs != self._mpr_set:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "olsr.mpr_change", self.node.ip,
                    old=sorted(self._mpr_set), new=sorted(mprs),
                )
        self._mpr_set = mprs
        self._mprs_stale = False
        self._mprs_valid_until = valid_until

    # -- route calculation --------------------------------------------------------------------
    def _recompute_if_dirty(self) -> None:
        if self._dirty:
            self._recompute_routes()
            self._dirty = False

    def recompute_routes(self) -> None:
        """Force an immediate shortest-path recomputation (mostly for tests)."""
        self._stale = True
        self._recompute_routes()
        self._dirty = False

    def _recompute_routes(self) -> None:
        """Bring the table up to date; rebuild it only if it may have changed."""
        now = self.sim.now
        if self._stale or now >= self._valid_until:
            self._rebuild_routes(now)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "olsr.route_recompute", self.node.ip, routes=len(self.table),
            )

    def _rebuild_routes(self, now: float) -> None:
        graph: dict[str, set[str]] = {}
        valid_until = math.inf

        def add_edge(a: str, b: str) -> None:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set()).add(a)

        me = self.node.ip
        for neighbor, link in self._links.items():
            if link.is_sym(now):
                add_edge(me, neighbor)
                valid_until = min(valid_until, link.sym_until)
        for neighbor, (two_hop, expiry) in self._two_hop.items():
            if expiry <= now:
                continue
            valid_until = min(valid_until, expiry)
            for far in two_hop:
                add_edge(neighbor, far)
        for origin, entry in self._topology.items():
            if entry.expires_at <= now:
                continue
            valid_until = min(valid_until, entry.expires_at)
            for selector in entry.selectors:
                add_edge(origin, selector)
        self._stale = False
        self._valid_until = valid_until

        self.table.clear()
        # BFS from self: every edge has cost 1.
        frontier = [me]
        first_hop: dict[str, str] = {me: ""}
        depth = 0
        visited = {me}
        while frontier:
            depth += 1
            next_frontier = []
            for vertex in frontier:
                for peer in sorted(graph.get(vertex, ())):
                    if peer in visited:
                        continue
                    visited.add(peer)
                    hop = peer if vertex == me else first_hop[vertex]
                    first_hop[peer] = hop
                    self.table.upsert(
                        Route(destination=peer, next_hop=hop, hop_count=depth)
                    )
                    next_frontier.append(peer)
            frontier = next_frontier


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def _origin_key(ip: str) -> int:
    """An originator's address as the high bits of a duplicate key.

    OR-ing in the 16-bit message sequence number gives RFC 3626's
    (originator, seq) duplicate tuple as one int, smaller than a tuple.
    """
    return int.from_bytes(encode_ip(ip), "big") << 16


def _alters_graph(
    old_edges: frozenset[str] | None,
    old_expiry: float,
    new_edges: frozenset[str] | None,
    new_expiry: float,
    now: float,
) -> bool:
    """Whether replacing a link-state entry can change the route graph.

    An entry takes part in the graph while its expiry lies ahead of ``now``
    (an absent entry has expiry 0). The graph changes if an expired entry
    comes back or a live one changes its edges. A live entry that gets a
    shorter expiry may leave the graph before the time the last rebuild
    recorded, so it counts as a change too.
    """
    if old_expiry <= now:
        return new_expiry > now
    return new_expiry < old_expiry or new_edges != old_edges


def _seq_newer(existing: int, candidate: int) -> bool:
    """True if ``existing`` ANSN is newer than ``candidate`` (wrap-aware)."""
    return ((existing - candidate) & 0xFFFF) < 0x8000 and existing != candidate
