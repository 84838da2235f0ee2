"""The SIPHoc Proxy: a standard SIP outbound proxy with MANET smarts.

Per node, the local VoIP application points its outbound proxy at this
component (Figure 2). The proxy then implements the paper's call flow
(Figure 3):

1. REGISTER from the local app is answered locally and the user->endpoint
   binding is advertised through MANET SLP (steps 1-4).
2. INVITE from the local app triggers a MANET SLP lookup for the callee;
   the request is forwarded to the responsible remote proxy, which passes
   it to its local application (steps 5-8).
3. With a Connection Provider attached to a gateway, the proxy gains a WAN
   leg on the tunnel interface: local REGISTERs are additionally forwarded
   to the account's Internet provider (with the contact rewritten to the
   tunnel address) and unresolvable callees are routed to the Internet —
   the transparency story of section 3.2, including the failure mode of
   providers that mandate their own outbound proxy.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.core.config import SipAccount, SiphocConfig
from repro.core.connection import ConnectionProvider
from repro.core.manet_slp import ManetSlp
from repro.core.media_relay import MediaRelay
from repro.netsim.node import Node
from repro.sip.dialog import new_call_id, new_tag
from repro.sip.message import Headers, SipRequest, SipResponse
from repro.sip.proxy import AdmissionControl, ProxyCore, ProxyLeg, RoutingContext
from repro.sip.registrar import LocationService
from repro.sip.transport import SipTransport
from repro.sip.uri import NameAddr, SipUri
from repro.slp.service import SERVICE_SIP_CONTACT, ServiceEntry, ServiceUrl

DnsResolver = Callable[[str], str | None]


class SiphocProxy:
    """One SIPHoc proxy instance (one per MANET node)."""

    def __init__(
        self,
        node: Node,
        manet_slp: ManetSlp,
        config: SiphocConfig | None = None,
        connection: ConnectionProvider | None = None,
        dns_resolver: DnsResolver | None = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.config = config or SiphocConfig()
        self.manet_slp = manet_slp
        self.connection = connection
        self.dns_resolver = dns_resolver
        self.closed = False
        self.core = ProxyCore(node, port=self.config.proxy_port)
        self.core.on_register = self._handle_register
        self.core.route_fn = self._route
        if (
            self.config.admission_max_inflight is not None
            or self.config.admission_queue_watermark is not None
        ):
            self.core.admission = AdmissionControl(
                max_inflight=self.config.admission_max_inflight,
                queue_watermark=self.config.admission_queue_watermark,
            )
        self.media_relay = MediaRelay(node)
        self.core.media_filter = self._media_filter
        self.location = LocationService()
        self.accounts: dict[str, SipAccount] = {}
        self.upstream_registrations: dict[str, bool] = {}
        self._wan_leg: ProxyLeg | None = None
        self._register_cseq = itertools.count(1)
        if connection is not None:
            connection.on_connected = self._on_internet_up
            connection.on_disconnected = self._on_internet_down
        if node.wired_ip is not None:
            # This node *is* a gateway: its WAN leg rides the wired interface.
            self._attach_wan_leg(node.wired_ip)

    # -- public API --------------------------------------------------------------
    @property
    def address(self) -> str:
        return self.core.address

    @property
    def port(self) -> int:
        return self.core.port

    @property
    def internet_available(self) -> bool:
        return self._wan_leg is not None

    @property
    def inflight_forwards(self) -> int:
        """Dialog-initiating forwards still awaiting a final response."""
        return self.core.inflight_forwards

    @property
    def inflight_peak(self) -> int:
        """Highest :attr:`inflight_forwards` ever observed."""
        return self.core.inflight_peak

    def configure_account(self, account: SipAccount) -> None:
        """Make provider-specific settings (e.g. the mandated outbound proxy
        of the polyphone case) known to the proxy — the paper's future-work
        fix, since a stock VoIP app cannot convey them in-band."""
        self.accounts[str(account.aor.address_of_record)] = account

    def close(self) -> None:
        self.closed = True
        self.media_relay.close()
        self.core.close()

    # -- media ALG: SDP rewriting for leg-crossing calls -------------------------
    def _media_filter(self, kind: str, message, in_leg, out_leg) -> None:
        """Relay media for calls that cross the MANET/Internet boundary.

        The softphone's SDP names its MANET address, which the far side of
        the tunnel cannot route to — so the proxy splices itself into the
        media path (standard border-gateway behaviour).
        """
        call_id = message.call_id or ""
        if not call_id:
            return
        cseq = message.cseq
        if kind == "request":
            if message.method == "BYE":
                self.media_relay.close_session(call_id)
                return
            if message.method != "INVITE" or not message.body:
                return
            message.body = self.media_relay.rewrite_offer(
                call_id, message.body, a_address=in_leg.address, b_address=out_leg.address
            )
            return
        # Responses: rewrite the SDP answer travelling back across legs.
        if cseq is None or cseq.method != "INVITE" or not message.body:
            return
        if not (message.is_success or message.status in (180, 183)):
            return
        message.body = self.media_relay.rewrite_answer(call_id, message.body)

    # -- WAN leg lifecycle ----------------------------------------------------------
    def _attach_wan_leg(self, wan_address: str) -> None:
        if self._wan_leg is not None:
            return
        transport = SipTransport(
            self.node, port=self.config.wan_port, address_override=wan_address
        )
        self._wan_leg = self.core.add_leg("wan", transport)
        self.node.stats.increment("siphoc.wan_leg_up")
        for aor in list(self.location.bindings(self.sim.now)):
            self._register_upstream(aor)

    def _on_internet_up(self, tunnel_ip: str) -> None:
        self._attach_wan_leg(tunnel_ip)

    def _on_internet_down(self) -> None:
        if self._wan_leg is not None:
            self.core.remove_leg("wan")
            self._wan_leg = None
            self.upstream_registrations.clear()
            self.node.stats.increment("siphoc.wan_leg_down")

    # -- REGISTER handling (steps 1-2 of Figure 3) --------------------------------------
    def _handle_register(self, ctx: RoutingContext) -> None:
        request = ctx.request
        to = request.to
        contact = request.contact
        if to is None or contact is None:
            ctx.respond(400)
            return
        aor = to.uri.address_of_record
        expires = request.expires(3600)
        if expires is None:
            ctx.respond(400)
            return
        if expires == 0:
            self.location.remove(aor, contact.uri)
            self.manet_slp.deregister(self._contact_service_url())
            ctx.respond(200)
            return
        self.location.register(aor, contact.uri, expires, self.sim.now)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("sip.register", self.node.ip, aor=aor, expires=expires)
        # Step 2: advertise ourselves as the SIP endpoint for this user.
        self.manet_slp.register(
            self._contact_service_url(),
            attributes={"user": aor},
            lifetime=min(float(expires), self.manet_slp.config.advert_lifetime),
        )
        self.node.stats.increment("siphoc.registrations")
        ctx.respond(200)
        if self.internet_available:
            self._register_upstream(aor)

    def _contact_service_url(self) -> ServiceUrl:
        return ServiceUrl(
            service_type=SERVICE_SIP_CONTACT, host=self.node.ip, port=self.port
        )

    # -- upstream registration (section 3.2) -----------------------------------------------
    def _register_upstream(self, aor: str) -> None:
        leg = self._wan_leg
        if leg is None:
            return
        aor_uri = SipUri.parse(aor)
        destination = self._provider_destination(aor_uri.host, aor)
        if destination is None:
            self.upstream_registrations[aor] = False
            self.node.stats.increment("siphoc.upstream_register_unroutable")
            return
        self._send_upstream_register(leg, aor, destination, authorization=None)

    def _send_upstream_register(
        self,
        leg: ProxyLeg,
        aor: str,
        destination: tuple[str, int],
        authorization: str | None,
    ) -> None:
        """One upstream REGISTER attempt; ``authorization`` answers a 401 challenge.

        A method rather than a closure inside :meth:`_register_upstream`: a
        closure that re-sends itself refers to itself, a cycle per registration.
        """
        aor_uri = SipUri.parse(aor)
        account = self.accounts.get(aor)
        credentials = account.credentials if account is not None else None
        headers = Headers()
        identity = NameAddr(uri=aor_uri)
        headers.add("From", str(identity.with_tag(new_tag(self.sim))))
        headers.add("To", str(identity))
        headers.add("Call-ID", new_call_id(self.sim, leg.address))
        headers.add("CSeq", f"{next(self._register_cseq)} REGISTER")
        headers.add("Max-Forwards", "70")
        # The binding we push upstream is OUR tunnel-side endpoint, so
        # Internet calls for this user land on the WAN leg and get
        # relayed into the MANET.
        wan_contact = SipUri(user=aor_uri.user, host=leg.address, port=leg.port)
        headers.add("Contact", f"<{wan_contact}>")
        headers.add("Expires", "3600")
        if authorization is not None:
            headers.add("Authorization", authorization)
        request = SipRequest("REGISTER", SipUri(user=None, host=aor_uri.host), headers=headers)

        def on_response(response: SipResponse) -> None:
            if response.status == 401 and authorization is None and credentials is not None:
                challenge = response.headers.get("WWW-Authenticate")
                if challenge:
                    answer = credentials.authorization_for(
                        challenge, "REGISTER", str(request.uri)
                    )
                    if answer is not None:
                        self._send_upstream_register(leg, aor, destination, answer)
                        return
            self.upstream_registrations[aor] = response.is_success
            if response.is_success:
                self.node.stats.increment("siphoc.upstream_register_ok")
            else:
                self.node.stats.increment("siphoc.upstream_register_rejected")

        def on_timeout() -> None:
            self.upstream_registrations[aor] = False
            self.node.stats.increment("siphoc.upstream_register_timeout")

        leg.transactions.send_request(request, destination, on_response, on_timeout)

    def _provider_destination(self, domain: str, aor: str | None = None) -> tuple[str, int] | None:
        """Resolve where to reach the Internet provider for ``domain``.

        Honors a configured provider outbound proxy (the future-work fix);
        otherwise the next hop is deduced from the domain itself, which is
        exactly what breaks for polyphone-style providers.
        """
        if self.dns_resolver is None:
            return None
        account = self.accounts.get(aor or "")
        if account is not None and account.provider_outbound_proxy:
            host = account.provider_outbound_proxy
            ip = self.dns_resolver(host) or host
            return (ip, account.provider_outbound_proxy_port)
        ip = self.dns_resolver(domain)
        if ip is None:
            return None
        return (ip, 5060)

    # -- call routing (steps 5-7 of Figure 3) -------------------------------------------------
    def _route(self, ctx: RoutingContext) -> None:
        request = ctx.request
        uri = request.uri
        # Inbound from the Internet: request URI carries our WAN address.
        if self.node.is_local_address(uri.host) or uri.host == self.address:
            self._deliver_to_local_user(ctx, uri)
            return
        aor = SipUri(user=uri.user, host=uri.host).address_of_record
        # A user registered on this very node?
        contacts = self.location.lookup(aor, self.sim.now)
        if contacts:
            contact = contacts[0]
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "sip.route", self.node.ip, via="local", aor=aor,
                    method=request.method,
                )
            ctx.forward((contact.host, contact.effective_port()), uri=contact)
            return
        # Step 6: consult MANET SLP for the responsible proxy.
        predicate = f"(user={aor})"
        self.node.stats.increment("siphoc.slp_lookups")
        self.manet_slp.find_services(
            SERVICE_SIP_CONTACT,
            predicate,
            callback=lambda entries: self._on_lookup_result(ctx, aor, entries),
        )

    def _on_lookup_result(
        self, ctx: RoutingContext, aor: str, entries: list[ServiceEntry]
    ) -> None:
        if self.closed or ctx.decided:
            # A lookup can resolve after the proxy closed (node crash):
            # forwarding would send on dead sockets.
            return
        tracer = self.sim.tracer
        remote = [entry for entry in entries if entry.url.host != self.node.ip]
        if remote:
            # Step 7: forward to the responsible proxy's SIP endpoint.
            target = remote[0].url
            if tracer is not None:
                tracer.emit(
                    "sip.route", self.node.ip, via="manet", aor=aor,
                    next_proxy=target.host,
                )
            ctx.forward((target.host, target.port or self.config.proxy_port))
            self.node.stats.increment("siphoc.routed_in_manet")
            return
        if self.internet_available:
            aor_uri = SipUri.parse(aor)
            # A provider-mandated outbound proxy applies to the *caller's*
            # account: all its outgoing traffic must traverse that proxy.
            from_ = ctx.request.from_
            caller_aor = from_.uri.address_of_record if from_ is not None else None
            destination = self._provider_destination(aor_uri.host, caller_aor)
            if destination is not None and self._wan_leg is not None:
                if tracer is not None:
                    tracer.emit(
                        "sip.route", self.node.ip, via="internet", aor=aor,
                        destination=destination[0],
                    )
                ctx.forward(destination, out_leg=self._wan_leg)
                self.node.stats.increment("siphoc.routed_to_internet")
                return
        self.node.stats.increment("siphoc.routing_failed")
        if tracer is not None:
            tracer.emit("sip.route_failed", self.node.ip, aor=aor)
        ctx.respond(404, "User Not Found In MANET")

    def _deliver_to_local_user(self, ctx: RoutingContext, uri: SipUri) -> None:
        """Step 8: hand the request to the local VoIP application."""
        contact = None
        if uri.user is not None:
            now = self.sim.now
            for aor, bindings in self.location.bindings(now).items():
                if SipUri.parse(aor).user == uri.user and bindings:
                    contact = bindings[0].contact
                    break
        if contact is None:
            ctx.respond(404, "No Such Local User")
            return
        ctx.forward(
            (contact.host, contact.effective_port()),
            uri=contact,
            out_leg=self.core.primary,
        )
        self.node.stats.increment("siphoc.delivered_to_local_app")
