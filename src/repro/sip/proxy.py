"""Generic stateful SIP proxy core (RFC 3261 section 16, loose routing).

Both the SIPHoc proxy (MANET side) and the Internet providers' proxies are
built on this engine. The engine owns the mechanics — Via push/pop,
Record-Route, Max-Forwards, transaction pairing, in-dialog Route-header
traversal, CANCEL propagation — while a pluggable *routing function*
decides where dialog-initiating requests go. The routing function may
answer asynchronously (SIPHoc needs that for MANET SLP lookups): it
receives a :class:`RoutingContext` and calls ``forward`` or ``respond``
whenever it is ready.

A proxy may have several *legs* (transports on different interfaces):
SIPHoc's proxy gains a WAN leg on the tunnel interface once the Connection
Provider is attached to a gateway. Requests crossing legs get the standard
double Record-Route so in-dialog requests traverse the correct interfaces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.netsim.node import Node
from repro.netsim.packet import is_internet_address
from repro.sip.message import SipRequest, SipResponse
from repro.sip.transaction import ServerTransaction, TransactionLayer
from repro.sip.transport import Address, SipTransport
from repro.sip.uri import PARSE_CACHE_SIZE, NameAddr, SipUri


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _route_uri(host: str, port: int) -> SipUri:
    """A leg's loose-routing URI, shared: every Record-Route reads it."""
    return SipUri(user=None, host=host, port=port, params=(("lr", None),))


class ProxyLeg:
    """One transport + transaction layer of a (possibly multi-homed) proxy."""

    def __init__(self, core: "ProxyCore", name: str, transport: SipTransport) -> None:
        self.core = core
        self.name = name
        self.transport = transport
        self.transactions = TransactionLayer(transport, core.sim)
        self.transactions.on_request = self._on_request

    @property
    def address(self) -> str:
        return self.transport.address

    @property
    def port(self) -> int:
        return self.transport.port

    @property
    def route_uri(self) -> SipUri:
        return _route_uri(self.address, self.port)

    def owns(self, uri: SipUri) -> bool:
        return uri.host == self.address and uri.effective_port() == self.port

    def close(self) -> None:
        self.transport.close()

    def _on_request(
        self, request: SipRequest, txn: ServerTransaction | None, source: Address
    ) -> None:
        self.core._on_request(request, txn, source, self)


class RoutingContext:
    """Handed to the routing function for each request needing a decision."""

    def __init__(
        self,
        proxy: "ProxyCore",
        request: SipRequest,
        txn: ServerTransaction | None,
        source: Address,
        leg: ProxyLeg,
    ) -> None:
        self.proxy = proxy
        self.request = request
        self.txn = txn
        self.source = source
        self.leg = leg
        self.decided = False

    def forward(
        self,
        destination: Address,
        uri: SipUri | None = None,
        record_route: bool | None = None,
        out_leg: ProxyLeg | None = None,
    ) -> None:
        """Forward the request to ``destination`` (optionally rewriting the URI)."""
        if self.decided:
            return
        self.decided = True
        leg = out_leg or self.proxy.select_leg(destination[0])
        self.proxy._forward_request(self, destination, uri, record_route, leg)

    def respond(
        self,
        status: int,
        reason: str | None = None,
        headers: list[tuple[str, str]] | None = None,
    ) -> None:
        """Answer the request locally with a final response."""
        if self.decided:
            return
        self.decided = True
        if self.txn is not None:
            response = self.request.create_response(status, reason)
            for name, value in headers or ():
                response.headers.set(name, value)
            self.txn.send_response(response)

    def drop(self) -> None:
        self.decided = True


#: The routing function: inspect ``ctx.request`` and eventually call
#: ``ctx.forward(...)`` or ``ctx.respond(...)`` (synchronously or later).
RouteFn = Callable[[RoutingContext], None]


@dataclass
class AdmissionControl:
    """Overload policy for dialog-initiating requests (DESIGN.md §5f).

    When either watermark is crossed, new INVITE/REGISTER requests are
    rejected with ``503 Service Unavailable`` + ``Retry-After`` instead of
    being queued into congestion. In-dialog requests (re-INVITE, BYE, ACK,
    CANCEL) always pass: admission control must never break an established
    call. Both watermarks default to off.
    """

    #: Reject while this many proxied INVITE/REGISTERs await a final
    #: response (``None`` = don't look at transaction pressure).
    max_inflight: int | None = None
    #: Reject while the node's bounded TX queue is at or beyond this
    #: occupancy fraction (``None`` = don't look at queue depth; ignored
    #: when the node has no TX queue configured).
    queue_watermark: float | None = None
    #: Delta-seconds advertised to rejected clients.
    RETRY_AFTER: ClassVar[int] = 5


class _ProxiedInvite:
    __slots__ = ("client_request", "destination", "leg")

    def __init__(
        self, client_request: SipRequest, destination: Address, leg: ProxyLeg
    ) -> None:
        self.client_request = client_request
        self.destination = destination
        self.leg = leg


class ProxyCore:
    """A stateful forwarding proxy with one or more legs."""

    def __init__(self, node: Node, port: int = 5060, record_route: bool = True) -> None:
        self.node = node
        self.sim = node.sim
        self.record_route = record_route
        self.primary = ProxyLeg(self, "primary", SipTransport(node, port))
        self.legs: dict[str, ProxyLeg] = {"primary": self.primary}
        self.route_fn: RouteFn | None = None
        self.on_register: Callable[[RoutingContext], None] | None = None
        #: Optional hook invoked when messages cross legs, e.g. for SDP/media
        #: rewriting: ``media_filter(kind, message, in_leg, out_leg)`` with
        #: kind in {"request", "response"}; may mutate the message in place.
        self.media_filter: Callable[[str, object, ProxyLeg, ProxyLeg], None] | None = None
        self._proxied_invites: dict[str, _ProxiedInvite] = {}
        self.requests_processed = 0
        #: Overload policy; None (the default) admits everything.
        self.admission: AdmissionControl | None = None
        #: Proxied INVITE/REGISTER transactions still awaiting a final
        #: response — the transaction-pressure gauge for admission control.
        #: (Raw TransactionLayer counts would do: COMPLETED/ACCEPTED
        #: transactions linger for 32 s absorbing retransmissions, so a burst
        #: of *rejections* would keep the proxy wedged at its own watermark.)
        self.inflight_forwards = 0
        #: Highest inflight_forwards ever observed (metrics gauge).
        self.inflight_peak = 0

    # -- compatibility accessors for the single-leg common case ------------------
    @property
    def transport(self) -> SipTransport:
        return self.primary.transport

    @property
    def transactions(self) -> TransactionLayer:
        return self.primary.transactions

    @property
    def address(self) -> str:
        return self.primary.address

    @property
    def port(self) -> int:
        return self.primary.port

    @property
    def route_uri(self) -> SipUri:
        return self.primary.route_uri

    # -- leg management --------------------------------------------------------------
    def add_leg(self, name: str, transport: SipTransport) -> ProxyLeg:
        leg = ProxyLeg(self, name, transport)
        self.legs[name] = leg
        return leg

    def remove_leg(self, name: str) -> None:
        leg = self.legs.pop(name, None)
        if leg is not None:
            leg.close()

    def select_leg(self, destination_ip: str) -> ProxyLeg:
        """Pick the leg whose interface should carry traffic to this address."""
        if is_internet_address(destination_ip):
            for name, leg in self.legs.items():
                if name != "primary":
                    return leg
        return self.primary

    def close(self) -> None:
        for leg in self.legs.values():
            leg.close()
        self.legs.clear()

    # -- request intake ------------------------------------------------------------------
    def _on_request(
        self,
        request: SipRequest,
        txn: ServerTransaction | None,
        source: Address,
        leg: ProxyLeg,
    ) -> None:
        self.requests_processed += 1
        self._pop_own_routes(request)

        if request.method == "ACK":
            self._forward_stateless_by_route(request)
            return
        if request.method == "CANCEL":
            self._handle_cancel(request, txn)
            return

        if not self._check_max_forwards(request, txn):
            return

        if (
            request.method in ("INVITE", "REGISTER")
            and not self._looks_in_dialog(request)
            and not request.routes()
            and self._admission_reject(request, txn)
        ):
            return

        if request.method == "INVITE" and txn is not None:
            txn.send_response(request.create_response(100))

        ctx = RoutingContext(self, request, txn, source, leg)
        if request.method == "REGISTER" and self.on_register is not None:
            self.on_register(ctx)
            return
        # In-dialog requests carry a Route header after popping our own
        # entries: pure loose routing, no routing decision needed.
        routes = request.routes()
        if routes:
            first = routes[0].uri
            ctx.forward((first.host, first.effective_port()), record_route=False)
            return
        if self._looks_in_dialog(request):
            uri = request.uri
            ctx.forward((uri.host, uri.effective_port()), record_route=False)
            return
        if self.route_fn is not None:
            self.route_fn(ctx)
            return
        ctx.respond(404)

    def _admission_reject(
        self, request: SipRequest, txn: ServerTransaction | None
    ) -> bool:
        """Shed the request with 503 + Retry-After if a watermark is crossed."""
        policy = self.admission
        if policy is None:
            return False
        cause = None
        if (
            policy.max_inflight is not None
            and self.inflight_forwards >= policy.max_inflight
        ):
            cause = "inflight"
        elif policy.queue_watermark is not None:
            queue = self.node.tx_queue
            if (
                queue is not None
                and queue.depth >= policy.queue_watermark * queue.capacity
            ):
                cause = "queue_depth"
        if cause is None:
            return False
        self.node.stats.increment("sip.admission_rejected")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "sip.overload_reject",
                self.node.ip or self.node.wired_ip or "",
                method=request.method,
                cause=cause,
                inflight=self.inflight_forwards,
                retry_after=policy.RETRY_AFTER,
            )
        if txn is not None:
            response = request.create_response(503)
            response.set_retry_after(policy.RETRY_AFTER)
            txn.send_response(response)
        return True

    def _looks_in_dialog(self, request: SipRequest) -> bool:
        """Mid-dialog requests have a To tag (RFC 3261 section 12.2)."""
        to = request.to
        return to is not None and to.tag is not None and request.method != "REGISTER"

    def _pop_own_routes(self, request: SipRequest) -> None:
        """Strip our own URIs from the top of the Route set (loose routing).

        With double Record-Route both of our leg addresses may be stacked.
        """
        while True:
            routes = request.headers.get_all("Route")
            if not routes:
                return
            top = NameAddr.parse(routes[0]).uri
            if any(leg.owns(top) for leg in self.legs.values()):
                request.headers.remove_first("Route")
            else:
                return

    def _check_max_forwards(
        self, request: SipRequest, txn: ServerTransaction | None
    ) -> bool:
        raw = request.headers.get("Max-Forwards")
        if raw is None:
            request.headers.set("Max-Forwards", "70")
            return True
        try:
            value = int(raw)
        except ValueError:
            value = 70
        if value <= 0:
            if txn is not None:
                txn.send_response(request.create_response(483))
            return False
        request.headers.set("Max-Forwards", str(value - 1))
        return True

    # -- forwarding ------------------------------------------------------------------------
    def _forward_request(
        self,
        ctx: RoutingContext,
        destination: Address,
        uri: SipUri | None,
        record_route: bool | None,
        out_leg: ProxyLeg,
    ) -> None:
        request = ctx.request
        forwarded = SipRequest(
            request.method,
            uri if uri is not None else request.uri,
            headers=request.headers.copy(),
            body=request.body,
        )
        should_rr = self.record_route if record_route is None else record_route
        if should_rr and request.method in ("INVITE", "SUBSCRIBE"):
            # Topmost Record-Route is the interface facing the next hop; when
            # the request crosses legs we add both (double Record-Route).
            if out_leg is not ctx.leg:
                forwarded.headers.insert_first("Record-Route", f"<{ctx.leg.route_uri}>")
            forwarded.headers.insert_first("Record-Route", f"<{out_leg.route_uri}>")

        crossing = out_leg is not ctx.leg
        if crossing and self.media_filter is not None:
            self.media_filter("request", forwarded, ctx.leg, out_leg)

        if ctx.txn is None:
            out_leg.transactions.send_stateless(forwarded, destination)
            return

        server_txn = ctx.txn
        in_leg = ctx.leg

        # Dialog-initiating forwards count toward the admission-control
        # gauge until their first final response (or timeout).
        tracked = request.method in ("INVITE", "REGISTER")
        if tracked:
            self.inflight_forwards += 1
            if self.inflight_forwards > self.inflight_peak:
                self.inflight_peak = self.inflight_forwards

        # A proxied INVITE can be cancelled until its first final response
        # or timeout (RFC 3261 §16.10 cancels only pending branches).
        branch, pending = "", None
        if request.method == "INVITE":
            branch = (request.top_via.branch if request.top_via else "") or ""
            pending = _ProxiedInvite(forwarded, destination, out_leg)
            self._proxied_invites[branch] = pending

        def settle() -> None:
            nonlocal tracked, pending
            if tracked:
                tracked = False
                self.inflight_forwards -= 1
            if pending is not None:
                if self._proxied_invites.get(branch) is pending:
                    del self._proxied_invites[branch]
                pending = None

        def on_response(response: SipResponse) -> None:
            if response.is_final:
                settle()
            if crossing and self.media_filter is not None:
                self.media_filter("response", response, in_leg, out_leg)
            self._relay_response(server_txn, response)

        def on_timeout() -> None:
            settle()
            server_txn.send_response(ctx.request.create_response(408))

        out_leg.transactions.send_request(forwarded, destination, on_response, on_timeout)

    def _relay_response(self, server_txn: ServerTransaction, response: SipResponse) -> None:
        if response.status == 100:
            return  # 100 Trying is hop-by-hop; we already sent our own.
        response.headers.remove_first("Via")
        server_txn.send_response(response)

    def _forward_stateless_by_route(self, request: SipRequest) -> None:
        """Forward an ACK along its Route set (or to its request URI)."""
        routes = request.routes()
        if routes:
            first = routes[0].uri
            destination = (first.host, first.effective_port())
        else:
            destination = (request.uri.host, request.uri.effective_port())
        leg = self.select_leg(destination[0])
        leg.transactions.send_stateless(request, destination)

    def _handle_cancel(self, request: SipRequest, txn: ServerTransaction | None) -> None:
        if txn is not None:
            txn.send_response(request.create_response(200))
        branch = request.top_via.branch if request.top_via else ""
        proxied = self._proxied_invites.get(branch or "")
        if proxied is None:
            return
        downstream = proxied.client_request
        cancel = SipRequest("CANCEL", downstream.uri)
        via = downstream.headers.get("Via")
        if via:
            cancel.headers.add("Via", via)
        for name in ("From", "To", "Call-Id", "Max-Forwards"):
            value = downstream.headers.get(name)
            if value:
                cancel.headers.add(name, value)
        cseq = downstream.cseq
        if cseq:
            cancel.headers.add("CSeq", f"{cseq.number} CANCEL")
        proxied.leg.transactions.send_stateless(cancel, proxied.destination)
