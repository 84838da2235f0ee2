"""Routing handler plugins: the protocol-specific piggybacking logic.

The paper: *"To assure generality, the routing specific functionality is
encapsulated within a routing handler — a software module that receives raw
routing packets as input and generates altered packets that include the
piggybacked service information."*

Both plugins operate purely through the node's netfilter hook chains on the
routing daemon's UDP port; the daemons themselves are untouched.

* :class:`AodvHandler` — adverts ride outgoing RREQ/RREP packets; lookups
  are mapped onto route discoveries for the reserved SLP anycast address,
  and answers return as RREPs carrying a SrvRply (the Figure 5 capture).
  As a bonus, the answer's RREP *installs the route* the subsequent SIP
  INVITE will use — SIPHoc's headline efficiency trick.

* :class:`OlsrHandler` — SLP payloads travel as OLSR messages of type 130,
  which RFC 3626's default forwarding algorithm floods through the MPR
  backbone without understanding them. Adverts therefore disseminate
  proactively network-wide; lookups are usually local cache hits.
"""

from __future__ import annotations

import abc
import itertools
from typing import TYPE_CHECKING

from repro.core.extension import (
    EXT_SLP_ADVERT,
    SLP_EXTENSION_TYPES,
    advert_extension,
    decode_extension,
    query_extension,
    reply_extension,
)
from repro.errors import CodecError, SlpError
from repro.netsim.capture import Chain, Verdict
from repro.netsim.holdtable import HoldTable
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST, Packet
from repro.routing.aodv import SLP_ANYCAST, Aodv
from repro.routing.messages import (
    OLSR_SLP,
    Extension,
    OlsrMessage,
    Rrep,
    Rreq,
    RREQ_FLAG_DEST_ONLY,
    RREQ_FLAG_UNKNOWN_SEQ,
    decode_aodv,
    decode_olsr_packet,
    encode_aodv,
    encode_olsr_packet,
)
from repro.routing.olsr import Olsr
from repro.slp.messages import (
    SlpMessage,
    SrvDeReg,
    SrvReg,
    SrvRply,
    SrvRqst,
    UrlEntry,
    decode_slp,
    encode_slp,
)
from repro.slp.service import ServiceEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.manet_slp import ManetSlp

# Read per packet: on Python 3.11 an enum member load calls EnumType.__getattr__.
_ACCEPT = Verdict.ACCEPT

#: How many outgoing routing packets each queued advert rides on.
ADVERT_REDUNDANCY = 2
#: Max piggybacked SLP messages per routing packet.
PIGGYBACK_BUDGET = 3


class RoutingHandler(abc.ABC):
    """Common plugin machinery: the pending-advert queue and SLP dispatch."""

    protocol_name = "generic"
    #: Where the plugin floods every advert and lookup to every node, how
    #: long after a node starts its messages first reach past its 1-hop
    #: neighbours; ``None`` where it does not flood them (AODV).
    FLOOD_SETTLE_TIME: float | None = None
    #: How long a plugin remembers an SLP message it has handled: one default
    #: advert refresh interval. A refresh re-announces a service under a new
    #: XID and replaces its queued advert, so the redundant sends of one
    #: advert ride carriers within about that time, and a flooded copy
    #: arrives within seconds.
    MESSAGE_HOLD_TIME = 30.0

    def __init__(self, node: Node) -> None:
        self.node = node
        self.slp: "ManetSlp | None" = None
        self._pending: dict[str, tuple[SlpMessage, int]] = {}
        # The wire bytes of each SLP message handled: equal bytes are the
        # same advert, query or reply, whichever carrier brought it.
        self._seen = HoldTable(self.MESSAGE_HOLD_TIME)
        self._xid = itertools.count(1)

    def attach(self, slp: "ManetSlp") -> None:
        self.slp = slp

    # -- ManetSlp-facing API ---------------------------------------------------
    def advertise(self, entry: ServiceEntry) -> None:
        """Queue a service announcement for piggybacking."""
        message = SrvReg(
            xid=self._next_xid(),
            entry=UrlEntry.from_service_entry(entry, entry.lifetime),
        )
        self._pending[entry.key()] = (message, ADVERT_REDUNDANCY)

    def withdraw(self, entry: ServiceEntry) -> None:
        message = SrvDeReg(xid=self._next_xid(), url=entry.key())
        self._pending[entry.key()] = (message, ADVERT_REDUNDANCY)

    def _next_xid(self) -> int:
        return next(self._xid) & 0xFFFF  # the SLP XID wire field is 16 bits

    @abc.abstractmethod
    def query(self, request: SrvRqst) -> None:
        """Launch an in-band network lookup."""

    @abc.abstractmethod
    def reply(self, response: SrvRply, requester_ip: str) -> None:
        """Deliver a lookup answer back toward ``requester_ip``."""

    # -- shared plumbing -----------------------------------------------------------
    def take_pending(self, exclude: set[str] | None = None) -> list[SlpMessage]:
        """Dequeue up to :data:`PIGGYBACK_BUDGET` queued announcements for one packet."""
        taken: list[SlpMessage] = []
        for key in list(self._pending):
            if len(taken) >= PIGGYBACK_BUDGET:
                break
            if exclude and key in exclude:
                continue
            message, sends_left = self._pending[key]
            taken.append(message)
            if sends_left <= 1:
                del self._pending[key]
            else:
                self._pending[key] = (message, sends_left - 1)
        return taken

    def pending_count(self) -> int:
        return len(self._pending)

    def _first_copy(self, body: bytes) -> bool:
        """Whether the SLP message ``body`` is new here; a new one is held."""
        seen = self._seen
        now = self.node.sim.now
        if seen.holds(body, now):
            return False
        seen.add(body, now)
        return True

    def handle_slp_message(self, message: SlpMessage, sender_ip: str) -> None:
        """Dispatch an SLP payload extracted from a routing packet."""
        if self.slp is None:
            return
        now = self.node.sim.now
        if isinstance(message, SrvReg):
            try:
                entry = message.entry.to_service_entry(now, origin=sender_ip)
            except SlpError:
                self.node.stats.increment("manetslp.bad_adverts")
                return
            self.slp.on_remote_entry(entry)
        elif isinstance(message, SrvDeReg):
            self.slp.on_remote_removal(message.url)
        elif isinstance(message, SrvRqst):
            self._handle_query(message)
        elif isinstance(message, SrvRply):
            for url_entry in message.entries:
                try:
                    entry = url_entry.to_service_entry(now, origin=sender_ip)
                except SlpError:
                    continue
                self.slp.on_remote_entry(entry)

    def _handle_query(self, request: SrvRqst) -> None:
        assert self.slp is not None
        if not request.requester or request.requester == self.node.ip:
            return
        now = self.node.sim.now
        matches = self.slp.local_matches(request.service_type, request.predicate)
        if not matches:
            return
        response = SrvRply(
            xid=request.xid,
            entries=tuple(
                UrlEntry.from_service_entry(entry, entry.expires_at - now)
                for entry in matches
            ),
        )
        # Defer slightly so the routing daemon processes the carrier packet
        # (e.g. installs the reverse route) before the answer is sent.
        sim = self.node.sim
        delay = 0.005 + sim.rng.uniform(0, 0.01)
        sim.schedule(delay, self.reply, response, request.requester)


class AodvHandler(RoutingHandler):
    """SLP piggybacking over AODV route discovery traffic."""

    protocol_name = "aodv"
    REPLY_LIFETIME_MS = 60_000

    def __init__(self, routing: Aodv) -> None:
        super().__init__(routing.node)
        self.routing = routing
        self.node.hooks.register(
            Chain.OUTPUT, {Aodv.port}, self._on_output, name="siphoc-slp-aodv-out"
        )
        self.node.hooks.register(
            Chain.INPUT, {Aodv.port}, self._on_input, name="siphoc-slp-aodv-in"
        )

    # -- hooks -------------------------------------------------------------------
    def _on_output(self, packet: Packet) -> tuple[Verdict, Packet]:
        if not self._pending:
            return (_ACCEPT, packet)
        try:
            message, extensions = decode_aodv(packet.data)
        except CodecError:
            return (_ACCEPT, packet)
        carrier = isinstance(message, Rreq) or (
            isinstance(message, Rrep) and not message.is_hello()
        )
        if not carrier:
            return (_ACCEPT, packet)
        already = _advertised_urls(extensions)
        fresh = self.take_pending(exclude=already)
        if not fresh:
            return (_ACCEPT, packet)
        new_extensions = extensions + tuple(advert_extension(m) for m in fresh)
        self.node.stats.increment("manetslp.adverts_piggybacked", len(fresh))
        return (_ACCEPT, packet.with_data(encode_aodv(message, new_extensions)))

    def _on_input(self, packet: Packet) -> tuple[Verdict, Packet]:
        try:
            _, extensions = decode_aodv(packet.data)
        except CodecError:
            return (_ACCEPT, packet)
        for extension in extensions:
            if extension.ext_type in SLP_EXTENSION_TYPES and self._first_copy(extension.body):
                slp_message = decode_extension(extension)
                if slp_message is not None:
                    self.handle_slp_message(slp_message, packet.src)
        return (_ACCEPT, packet)

    # -- lookups ------------------------------------------------------------------------
    def query(self, request: SrvRqst) -> None:
        """Map the SLP request onto a route discovery for the anycast address."""
        self.routing.seq_no += 1
        rreq = Rreq(
            rreq_id=self.routing.next_rreq_id(),
            dest_ip=SLP_ANYCAST,
            dest_seq=0,
            orig_ip=self.node.ip,
            orig_seq=self.routing.seq_no,
            hop_count=0,
            flags=RREQ_FLAG_DEST_ONLY | RREQ_FLAG_UNKNOWN_SEQ,
        )
        self.node.stats.increment("manetslp.queries_sent")
        self.routing.send_control(
            BROADCAST,
            encode_aodv(rreq, [query_extension(request)]),
            ttl=Aodv.NET_DIAMETER,
        )

    def reply(self, response: SrvRply, requester_ip: str) -> None:
        """Answer with an RREP along the reverse route (Figure 5's packet)."""
        route = self.routing.route_to(requester_ip)
        if route is None:
            self.node.stats.increment("manetslp.reply_no_reverse_route")
            return
        # The RREP names *this node* as destination, so every hop on the way
        # back installs a forward route to us — the SIP INVITE that follows
        # the lookup finds its route already in place (SIPHoc's key trick).
        self.routing.seq_no += 1
        rrep = Rrep(
            dest_ip=self.node.ip,
            dest_seq=self.routing.seq_no,
            orig_ip=requester_ip,
            lifetime_ms=self.REPLY_LIFETIME_MS,
            hop_count=0,
        )
        self.node.stats.increment("manetslp.replies_sent")
        self.routing.send_control(
            route.next_hop,
            encode_aodv(rrep, [reply_extension(response)]),
            ttl=Aodv.NET_DIAMETER,
        )


class OlsrHandler(RoutingHandler):
    """SLP piggybacking over OLSR's MPR flooding (message type 130)."""

    protocol_name = "olsr"
    #: A neighbour forwards a node's messages once it has heard the node's
    #: HELLO naming it an MPR, which needs the node's symmetric links and
    #: 2-hop set first: within three HELLO intervals of the node starting.
    FLOOD_SETTLE_TIME = Olsr.NEIGHB_HOLD_TIME

    def __init__(self, routing: Olsr) -> None:
        super().__init__(routing.node)
        self.routing = routing
        self.node.hooks.register(
            Chain.OUTPUT, {Olsr.port}, self._on_output, name="siphoc-slp-olsr-out"
        )
        self.node.hooks.register(
            Chain.INPUT, {Olsr.port}, self._on_input, name="siphoc-slp-olsr-in"
        )

    def _make_message(self, payload: SlpMessage, vtime: float = 60.0) -> OlsrMessage:
        return OlsrMessage(
            msg_type=OLSR_SLP,
            orig_ip=self.node.ip,
            seq=self.routing.next_message_seq(),
            body=encode_slp(payload),
            vtime=vtime,
            ttl=255,
        )

    # -- hooks ---------------------------------------------------------------------
    def _on_output(self, packet: Packet) -> tuple[Verdict, Packet]:
        if not self._pending:
            return (_ACCEPT, packet)
        try:
            packet_seq, messages = decode_olsr_packet(packet.data)
        except CodecError:
            return (_ACCEPT, packet)
        fresh = self.take_pending()
        if not fresh:
            return (_ACCEPT, packet)
        vtime = self.slp.config.advert_lifetime if self.slp else 60.0
        messages = messages + tuple(self._make_message(m, vtime=vtime) for m in fresh)
        self.node.stats.increment("manetslp.adverts_piggybacked", len(fresh))
        return (
            _ACCEPT,
            packet.with_data(encode_olsr_packet(packet_seq, messages)),
        )

    def _on_input(self, packet: Packet) -> tuple[Verdict, Packet]:
        try:
            _, messages = decode_olsr_packet(packet.data)
        except CodecError:
            return (_ACCEPT, packet)
        me = self.node.ip
        for message in messages:
            if (
                message.msg_type != OLSR_SLP
                or message.orig_ip == me
                or not self._first_copy(message.body)
            ):
                continue
            try:
                slp_message = decode_slp(message.body)
            except CodecError:
                self.node.stats.increment("manetslp.bad_adverts")
                continue
            self.handle_slp_message(slp_message, message.orig_ip)
        return (_ACCEPT, packet)

    # -- lookups --------------------------------------------------------------------------
    def query(self, request: SrvRqst) -> None:
        self.node.stats.increment("manetslp.queries_sent")
        self.routing.send_packet([self._make_message(request, vtime=10.0)])

    def reply(self, response: SrvRply, requester_ip: str) -> None:
        # Flooded so every node's cache benefits from the answer.
        self.node.stats.increment("manetslp.replies_sent")
        self.routing.send_packet([self._make_message(response, vtime=60.0)])


def _advertised_urls(extensions: tuple[Extension, ...]) -> set[str]:
    """Service URLs already announced in a packet's extension list."""
    urls: set[str] = set()
    for extension in extensions:
        if extension.ext_type != EXT_SLP_ADVERT:
            continue
        message = decode_extension(extension)
        if isinstance(message, SrvReg):
            urls.add(message.entry.url)
        elif isinstance(message, SrvDeReg):
            urls.add(message.url)
    return urls


def make_handler(routing) -> RoutingHandler:
    """Instantiate the right plugin for a routing daemon."""
    if isinstance(routing, Aodv):
        return AodvHandler(routing)
    if isinstance(routing, Olsr):
        return OlsrHandler(routing)
    raise TypeError(f"no SIPHoc routing handler for {type(routing).__name__}")
