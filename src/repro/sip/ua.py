"""SIP user agent core: registration, outgoing and incoming calls.

This is the engine inside the softphone (and inside Internet test
endpoints): it speaks plain RFC 3261 toward whatever outbound proxy it is
configured with, which in SIPHoc's architecture is always the local proxy
on the same node — the paper's "out-of-the-box VoIP application" contract.
"""

from __future__ import annotations

import enum
import functools
import itertools
import random
from typing import Callable

from repro.errors import SipDialogError, SipParseError
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.sip.auth import Credentials
from repro.sip.dialog import Dialog, DialogKey, new_call_id, new_tag
from repro.sip.pidf import (
    AVAILABLE,
    PIDF_CONTENT_TYPE,
    PresenceStatus,
    build_pidf,
    parse_pidf,
)
from repro.sip.message import Headers, SipRequest, SipResponse
from repro.sip.sdp import SessionDescription, parse_sdp
from repro.sip.transaction import ServerTransaction, TransactionLayer
from repro.sip.transport import Address, SipTransport
from repro.sip.uri import PARSE_CACHE_SIZE, NameAddr, SipUri

def _allocate_rtp_port(sim: Simulator) -> int:
    """An even RTP port from the 8,192-port pool, cycling through the run."""
    return 16384 + (next(sim.rtp_ports) % 8192) * 2


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _contact_uri(user: str | None, host: str, port: int) -> SipUri:
    """A UA's contact URI, shared: every request and answer re-reads it."""
    return SipUri(user=user, host=host, port=port)


#: Alternate (multihomed) contact advertised alongside the dialog contact,
#: so the peer knows where to reach us if the primary path dies (§5k).
ALT_CONTACT_HEADER = "P-Alt-Contact"
#: Marks a re-INVITE as a handover migration: the UAS refreshes the dialog
#: target from it and answers with its own alternate address.
HANDOVER_HEADER = "P-Handover"

#: Re-INVITE glare (RFC 3261 section 14.1) retry attempts before giving up.
MAX_GLARE_RETRIES = 6


class CallState(enum.Enum):
    INIT = "init"
    CALLING = "calling"
    RINGING = "ringing"
    ESTABLISHED = "established"
    TERMINATED = "terminated"
    FAILED = "failed"


class Call:
    """Shared state of one call leg."""

    def __init__(self, ua: "UserAgent", call_id: str) -> None:
        self.ua = ua
        self.call_id = call_id
        self.state = CallState.INIT
        self.dialog: Dialog | None = None
        self.local_sdp: SessionDescription | None = None
        self.remote_sdp: SessionDescription | None = None
        self.failure_status: int | None = None
        #: Retry-After seconds from a failure response (e.g. a 503 from an
        #: overloaded proxy, §5f); None when the response carried none.
        self.retry_after: int | None = None
        self.created_at = ua.sim.now
        self.established_at: float | None = None
        self.terminated_at: float | None = None
        self.on_state: Callable[["Call"], None] | None = None
        self.on_media: Callable[["Call"], None] | None = None
        #: Peer's multihomed fallback contact (from P-Alt-Contact), if any.
        self.remote_alt_contact: SipUri | None = None
        #: True while our own re-INVITE awaits a final response; an incoming
        #: re-INVITE in that window is glare and gets 491 (RFC 3261 §14.2).
        self._pending_reinvite = False
        #: Whether this side generated the dialog's Call-ID (RFC 3261 §14.1
        #: glare retry classes: owner 2.1-4.0 s, non-owner 0-2.0 s).
        self.is_call_id_owner = False

    @property
    def is_active(self) -> bool:
        return self.state in (CallState.CALLING, CallState.RINGING, CallState.ESTABLISHED)

    @property
    def remote_rtp_endpoint(self) -> tuple[str, int] | None:
        return self.remote_sdp.rtp_endpoint if self.remote_sdp else None

    def _set_state(self, state: CallState) -> None:
        if self.state == state:
            return
        self.state = state
        if state is CallState.ESTABLISHED and self.established_at is None:
            self.established_at = self.ua.sim.now
        if state in (CallState.TERMINATED, CallState.FAILED):
            self.terminated_at = self.ua.sim.now
            self.ua._forget_call(self)
        if self.on_state is not None:
            self.on_state(self)

    @property
    def media_direction(self) -> str:
        """Effective media direction after offer/answer (RFC 3264)."""
        directions = set()
        for sdp in (self.local_sdp, self.remote_sdp):
            if sdp is not None:
                directions.add(sdp.direction)
        if "inactive" in directions:
            return "inactive"
        if directions == {"sendonly", "recvonly"}:
            return "sendonly" if self.local_sdp.direction == "sendonly" else "recvonly"
        if "sendonly" in directions or "recvonly" in directions:
            return next(d for d in directions if d != "sendrecv")
        return "sendrecv"

    @property
    def on_hold(self) -> bool:
        return self.media_direction != "sendrecv"

    def update_media(
        self,
        sdp: SessionDescription,
        on_result: Callable[[bool], None] | None = None,
    ) -> None:
        """Send a re-INVITE with a new session description (hold/resume)."""
        self._send_reinvite(sdp, on_result=on_result)

    def migrate(
        self,
        sdp: SessionDescription,
        on_result: Callable[[bool], None] | None = None,
    ) -> None:
        """Re-anchor an established call onto a new local address (§5k).

        Sends a handover re-INVITE straight to the peer's alternate
        contact: the recorded route set and old remote target live on the
        radio path being abandoned, so both are refreshed up front. The
        RTP session itself is untouched — SSRC, sequence space and the
        receiver's jitter buffer survive the move.
        """
        if self.state is not CallState.ESTABLISHED or self.dialog is None:
            if on_result is not None:
                on_result(False)
            return
        target = self.remote_alt_contact
        if target is None:
            if on_result is not None:
                on_result(False)
            return
        self.dialog.remote_target = target
        self.dialog.route_set = []
        self._send_reinvite(sdp, on_result=on_result, handover=True)

    def _send_reinvite(
        self,
        sdp: SessionDescription,
        on_result: Callable[[bool], None] | None = None,
        handover: bool = False,
        _attempt: int = 0,
    ) -> None:
        """The shared UAC re-INVITE engine (hold/resume and handover)."""
        if self.state is not CallState.ESTABLISHED or self.dialog is None:
            if on_result is not None:
                on_result(False)
            return
        self.local_sdp = sdp
        self._pending_reinvite = True
        reinvite = self.dialog.create_request("INVITE")
        reinvite.headers.add("Contact", f"<{self.ua.contact_uri}>")
        if self.ua.alt_contact_uri is not None:
            reinvite.headers.add(ALT_CONTACT_HEADER, f"<{self.ua.alt_contact_uri}>")
        if handover:
            reinvite.headers.add(HANDOVER_HEADER, "1")
        reinvite.headers.add("Content-Type", "application/sdp")
        reinvite.body = sdp.serialize()
        cseq = reinvite.cseq

        def on_response(response: SipResponse) -> None:
            if response.is_provisional:
                return
            self._pending_reinvite = False
            if response.is_success:
                if response.body:
                    try:
                        self.remote_sdp = parse_sdp(response.body)
                    except Exception:
                        pass
                assert self.dialog is not None
                contact = response.contact
                if handover and contact is not None:
                    # Target refresh confirmed: subsequent in-dialog
                    # requests go direct to the peer's new contact.
                    self.dialog.remote_target = contact.uri
                self._adopt_alt_contact(response.headers.get(ALT_CONTACT_HEADER))
                ack = self.dialog.create_request(
                    "ACK", cseq_number=cseq.number if cseq else 1
                )
                self.ua.transactions.send_stateless(ack, self.dialog.next_hop())
                if self.on_media is not None:
                    self.on_media(self)
                if on_result is not None:
                    on_result(True)
                return
            if response.status == 491 and self.is_active:
                # Glare: the peer has its own re-INVITE in flight. Back off
                # per RFC 3261 §14.1 and re-send with a fresh CSeq.
                self.ua.node.stats.increment("sip.reinvite_glare_retry")
                if _attempt < MAX_GLARE_RETRIES:
                    self.ua.sim.schedule(
                        self.ua._glare_delay(self.is_call_id_owner),
                        self._send_reinvite,
                        self.local_sdp,
                        on_result,
                        handover,
                        _attempt + 1,
                    )
                    return
            if on_result is not None:
                on_result(False)

        def on_timeout() -> None:
            self._pending_reinvite = False
            if on_result is not None:
                on_result(False)

        self.ua.transactions.send_request(
            reinvite,
            self.dialog.next_hop(),
            on_response,
            on_timeout=on_timeout,
        )

    def _adopt_alt_contact(self, raw: str | None) -> None:
        if not raw:
            return
        try:
            self.remote_alt_contact = NameAddr.parse(raw).uri
        except Exception:
            pass

    def hold(self, on_result: Callable[[bool], None] | None = None) -> None:
        """Put the call on hold (media direction -> inactive)."""
        if self.local_sdp is None:
            if on_result is not None:
                on_result(False)
            return
        self.update_media(self.local_sdp.with_direction("inactive"), on_result)

    def resume(self, on_result: Callable[[bool], None] | None = None) -> None:
        """Take the call off hold (media direction -> sendrecv)."""
        if self.local_sdp is None:
            if on_result is not None:
                on_result(False)
            return
        self.update_media(self.local_sdp.with_direction("sendrecv"), on_result)

    def _handle_reinvite(self, request: SipRequest, txn: ServerTransaction | None) -> None:
        """UAS side of a mid-dialog INVITE: accept the new offer."""
        if self._pending_reinvite:
            # Glare (RFC 3261 §14.2): our own re-INVITE is still in flight.
            self.ua.node.stats.increment("sip.reinvite_glare_491")
            if txn is not None:
                txn.send_response(
                    request.create_response(
                        491, to_tag=self.dialog.local_tag if self.dialog else None
                    )
                )
            return
        handover = request.headers.get(HANDOVER_HEADER) is not None
        self._adopt_alt_contact(request.headers.get(ALT_CONTACT_HEADER))
        if request.body:
            try:
                self.remote_sdp = parse_sdp(request.body)
            except Exception:
                pass
        if handover and self.dialog is not None:
            # The peer moved interfaces: refresh the dialog target from its
            # new Contact and drop the recorded route set — the proxy chain
            # it names sits on the dead path.
            contact = request.contact
            if contact is not None:
                self.dialog.remote_target = contact.uri
            self.dialog.route_set = []
        # Mirror the offered direction in our answer (RFC 3264 hold rules).
        answer = self.local_sdp
        if answer is not None and handover and self.ua.alt_contact_uri is not None:
            # Answer from our own alternate address: the peer can no longer
            # reach the MANET address our original answer advertised.
            answer = answer.with_address(self.ua.alt_contact_uri.host)
        if answer is not None and self.remote_sdp is not None:
            offered = self.remote_sdp.direction
            if offered == "inactive":
                answer = answer.with_direction("inactive")
            elif offered == "sendonly":
                answer = answer.with_direction("recvonly")
            elif offered == "recvonly":
                answer = answer.with_direction("sendonly")
            else:
                answer = answer.with_direction("sendrecv")
        if answer is not None:
            self.local_sdp = answer
        if txn is not None:
            response = request.create_response(
                200, to_tag=self.dialog.local_tag if self.dialog else None
            )
            contact_uri = self.ua.contact_uri
            if handover and self.ua.alt_contact_uri is not None:
                contact_uri = self.ua.alt_contact_uri
            response.headers.add("Contact", f"<{contact_uri}>")
            if self.ua.alt_contact_uri is not None:
                response.headers.add(
                    ALT_CONTACT_HEADER, f"<{self.ua.alt_contact_uri}>"
                )
            if answer is not None:
                response.headers.add("Content-Type", "application/sdp")
                response.body = answer.serialize()
            txn.send_response(response)
        if self.on_media is not None:
            self.on_media(self)

    def hangup(self) -> None:
        """Send BYE (only valid on an established call)."""
        if self.state is not CallState.ESTABLISHED or self.dialog is None:
            self._set_state(CallState.TERMINATED)
            return
        bye = self.dialog.create_request("BYE")
        self.ua.transactions.send_request(
            bye,
            self.dialog.next_hop(),
            on_response=lambda response: self._set_state(CallState.TERMINATED),
            on_timeout=lambda: self._set_state(CallState.TERMINATED),
        )

    def _handle_bye(self, request: SipRequest, txn: ServerTransaction | None) -> None:
        if txn is not None:
            txn.send_response(request.create_response(200))
        self._set_state(CallState.TERMINATED)


class OutgoingCall(Call):
    """Caller side of an INVITE session."""

    def __init__(self, ua: "UserAgent", call_id: str, target: SipUri) -> None:
        super().__init__(ua, call_id)
        self.target = target
        self.is_call_id_owner = True
        self._invite: SipRequest | None = None

    def cancel(self) -> None:
        """Abort the call before it is answered."""
        if self.state not in (CallState.CALLING, CallState.RINGING):
            return
        if self._invite is None:
            self._set_state(CallState.TERMINATED)
            return
        cancel = SipRequest("CANCEL", self._invite.uri)
        via = self._invite.headers.get("Via")
        if via:
            cancel.headers.add("Via", via)
        for name in ("From", "To", "Call-Id", "Max-Forwards"):
            value = self._invite.headers.get(name)
            if value:
                cancel.headers.add(name, value)
        cseq = self._invite.cseq
        if cseq:
            cancel.headers.add("CSeq", f"{cseq.number} CANCEL")
        self.ua.transactions.send_stateless(cancel, self.ua._destination_for(self.target))

    def _on_response(self, response: SipResponse) -> None:
        if response.is_provisional:
            if response.status >= 180:
                self._set_state(CallState.RINGING)
            return
        if response.is_success:
            assert self._invite is not None
            try:
                self.dialog = Dialog.from_response(self._invite, response)
            except SipDialogError:
                self.failure_status = 500
                self._set_state(CallState.FAILED)
                return
            self.ua._register_dialog(self.dialog, self)
            self._adopt_alt_contact(response.headers.get(ALT_CONTACT_HEADER))
            if response.body:
                try:
                    self.remote_sdp = parse_sdp(response.body)
                except Exception:
                    self.remote_sdp = None
            self._send_ack(response)
            self._set_state(CallState.ESTABLISHED)
            return
        self.failure_status = response.status
        self.retry_after = response.retry_after
        self._set_state(CallState.FAILED)

    def _on_timeout(self) -> None:
        self.failure_status = 408
        self._set_state(CallState.FAILED)

    def _send_ack(self, response: SipResponse) -> None:
        assert self.dialog is not None and self._invite is not None
        cseq = self._invite.cseq
        ack = self.dialog.create_request("ACK", cseq_number=cseq.number if cseq else 1)
        # Known defect: this branch comes from the tag stream and lacks the
        # z9hG4bK cookie of RFC 3261 section 8.1.1.7. new_branch() here would
        # move the golden digests, so that fix is a behaviour change of its own.
        ack.headers.insert_first("Via", self.ua.transport.via_text(new_tag(self.ua.sim)))
        self.ua.transactions.send_stateless(ack, self.dialog.next_hop())


class IncomingCall(Call):
    """Callee side of an INVITE session."""

    def __init__(
        self, ua: "UserAgent", request: SipRequest, txn: ServerTransaction
    ) -> None:
        super().__init__(ua, request.call_id or "")
        self.request = request
        self._txn = txn
        self.local_tag = new_tag(self.ua.sim)
        from_ = request.from_
        self.caller = from_.uri if from_ is not None else None
        self._adopt_alt_contact(request.headers.get(ALT_CONTACT_HEADER))
        if request.body:
            try:
                self.remote_sdp = parse_sdp(request.body)
            except Exception:
                self.remote_sdp = None
        self._set_state(CallState.RINGING)

    def ring(self) -> None:
        """Send 180 Ringing."""
        response = self.request.create_response(180, to_tag=self.local_tag)
        response.headers.add("Contact", f"<{self.ua.contact_uri}>")
        self._txn.send_response(response)

    def answer(self, sdp: SessionDescription | None = None) -> None:
        """Send 200 OK with an SDP answer; established once ACK arrives."""
        if sdp is None:
            address, port = self.ua.transport.address, _allocate_rtp_port(self.ua.sim)
            if self.remote_sdp is not None:
                sdp = self.remote_sdp.answer(address, port)
            else:
                sdp = SessionDescription.offer(address, port)
        self.local_sdp = sdp
        self.dialog = Dialog.from_request(
            self.request, self.local_tag, self.ua.contact_uri
        )
        self.ua._register_dialog(self.dialog, self)
        response = self.request.create_response(200, to_tag=self.local_tag)
        response.headers.add("Contact", f"<{self.ua.contact_uri}>")
        if self.ua.alt_contact_uri is not None:
            response.headers.add(ALT_CONTACT_HEADER, f"<{self.ua.alt_contact_uri}>")
        response.headers.add("Content-Type", "application/sdp")
        response.body = sdp.serialize()
        self._txn.send_response(response)

    def reject(self, status: int = 486) -> None:
        response = self.request.create_response(status, to_tag=self.local_tag)
        self._txn.send_response(response)
        self.failure_status = status
        self._set_state(CallState.FAILED)

    def _on_ack(self) -> None:
        if self.state is CallState.RINGING and self.dialog is not None:
            self._set_state(CallState.ESTABLISHED)

    def _on_cancel(self) -> None:
        if self.state is CallState.RINGING:
            response = self.request.create_response(487, to_tag=self.local_tag)
            self._txn.send_response(response)
            self._set_state(CallState.TERMINATED)


RegistrationCallback = Callable[[bool, SipResponse | None], None]
InviteHandler = Callable[[IncomingCall], None]
MessageHandler = Callable[[str, SipUri], None]
MessageResultCallback = Callable[[bool, int | None], None]
NotifyHandler = Callable[["Subscription"], None]


class Subscription:
    """Client side of a presence subscription (RFC 3265/3856)."""

    def __init__(self, ua: "UserAgent", target: SipUri, expires: int) -> None:
        self.ua = ua
        self.target = target
        self.expires = expires
        self.call_id = new_call_id(ua.sim, ua.transport.address)
        self.dialog: Dialog | None = None
        self.active = False
        self.terminated = False
        self.status: PresenceStatus | None = None
        self.on_notify: NotifyHandler | None = None
        self._refresh_task = None

    def _start_refresh(self) -> None:
        if self._refresh_task is None and self.expires > 1:
            self._refresh_task = self.ua.sim.schedule_periodic(
                self.expires / 2, self._refresh, jitter=0.05
            )

    def _refresh(self) -> None:
        """Keep the subscription alive (in-dialog re-SUBSCRIBE)."""
        if self.terminated or self.dialog is None:
            return
        request = self.dialog.create_request("SUBSCRIBE")
        request.headers.add("Event", "presence")
        request.headers.add("Expires", str(self.expires))
        self.ua.transactions.send_request(
            request, self.dialog.next_hop(), lambda response: None
        )

    def terminate(self) -> None:
        """Unsubscribe (in-dialog SUBSCRIBE with Expires: 0)."""
        if self._refresh_task is not None:
            self._refresh_task.stop()
            self._refresh_task = None
        if self.terminated or self.dialog is None:
            self.terminated = True
            self.active = False
            return
        request = self.dialog.create_request("SUBSCRIBE")
        request.headers.add("Event", "presence")
        request.headers.add("Expires", "0")
        self.ua.transactions.send_request(
            request, self.dialog.next_hop(), lambda response: None
        )
        self.terminated = True
        self.active = False


class _Watcher:
    """Server side of a presence subscription: someone watching us."""

    def __init__(self, dialog: Dialog, expires_at: float) -> None:
        self.dialog = dialog
        self.expires_at = expires_at

    def is_active(self, now: float) -> bool:
        return now < self.expires_at


class UserAgent:
    """A SIP UA bound to a UDP port on a node."""

    def __init__(
        self,
        node: Node,
        aor: str | SipUri,
        port: int = 5070,
        display_name: str | None = None,
        outbound_proxy: Address | None = None,
        credentials: Credentials | None = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.aor = SipUri.parse(aor) if isinstance(aor, str) else aor
        self.display_name = display_name
        self.outbound_proxy = outbound_proxy
        self.credentials = credentials
        self.transport = SipTransport(node, port)
        self.transactions = TransactionLayer(self.transport, node.sim)
        self.transactions.on_request = self._on_request
        self._dialogs: dict[DialogKey, Call] = {}
        self._calls_by_id: dict[str, Call] = {}
        self.on_invite: InviteHandler | None = None
        self.on_message: MessageHandler | None = None
        self.presence: PresenceStatus = AVAILABLE
        self._watchers: dict[str, _Watcher] = {}  # by Call-ID
        self._subscriptions: dict[str, Subscription] = {}  # by Call-ID
        self.registered = False
        self.registration_expires: float | None = None
        self._register_cseq = itertools.count(1)
        #: Alternate contact advertised via P-Alt-Contact (§5k handover);
        #: set by the handover policy on multihomed nodes, None otherwise.
        self.alt_contact_uri: SipUri | None = None
        # Private integer-seeded RNG for RFC 3261 §14.1 glare timers: never
        # touches the shared simulator stream, so enabling handover leaves
        # every other draw sequence untouched.
        self._glare_rng = random.Random(
            ((node.sim.seed * 1_000_003 + node.node_id) * 131_071 + port) * 8_191 + 17
        )

    @property
    def contact_uri(self) -> SipUri:
        transport = self.transport
        return _contact_uri(self.aor.user, transport.address, transport.port)

    def _glare_delay(self, owner: bool) -> float:
        """RFC 3261 §14.1 retry delay in 10 ms multiples from the private RNG."""
        lo, hi = (2.1, 4.0) if owner else (0.0, 2.0)
        steps = int(round((hi - lo) / 0.010))
        return lo + self._glare_rng.randrange(steps + 1) * 0.010

    def close(self) -> None:
        for subscription in list(self._subscriptions.values()):
            if subscription._refresh_task is not None:
                subscription._refresh_task.stop()
                subscription._refresh_task = None
        self._subscriptions.clear()
        self._watchers.clear()
        self.transport.close()

    # -- registration ------------------------------------------------------------
    def register(
        self,
        expires: int = 3600,
        registrar: Address | None = None,
        on_result: RegistrationCallback | None = None,
    ) -> None:
        """REGISTER the AOR with the registrar (default: outbound proxy).

        Answers one 401 digest challenge automatically when the UA has
        credentials configured.
        """
        destination = registrar or self.outbound_proxy
        if destination is None:
            raise SipDialogError("no registrar or outbound proxy configured")
        self._send_register(destination, expires, on_result, authorization=None)

    def _send_register(
        self,
        destination: Address,
        expires: int,
        on_result: RegistrationCallback | None,
        authorization: str | None,
    ) -> None:
        """One REGISTER attempt; ``authorization`` answers a 401 challenge.

        A method rather than a closure inside :meth:`register`: a closure
        that re-sends itself refers to itself, a cycle per registration.
        """
        headers = Headers()
        identity = NameAddr(uri=self.aor.without_params(), display_name=self.display_name)
        headers.add("From", str(identity.with_tag(new_tag(self.sim))))
        headers.add("To", str(identity))
        headers.add("Call-ID", new_call_id(self.sim, self.transport.address))
        headers.add("CSeq", f"{next(self._register_cseq)} REGISTER")
        headers.add("Max-Forwards", "70")
        headers.add("Contact", f"<{self.contact_uri}>")
        headers.add("Expires", str(expires))
        if authorization is not None:
            headers.add("Authorization", authorization)
        request = SipRequest("REGISTER", SipUri(user=None, host=self.aor.host), headers=headers)

        def on_response(response: SipResponse) -> None:
            if (
                response.status == 401
                and authorization is None
                and self.credentials is not None
            ):
                challenge = response.headers.get("WWW-Authenticate")
                if challenge:
                    answer = self.credentials.authorization_for(
                        challenge, "REGISTER", str(request.uri)
                    )
                    if answer is not None:
                        self._send_register(destination, expires, on_result, answer)
                        return
            self.registered = response.is_success and expires > 0
            if response.is_success:
                self.registration_expires = self.sim.now + expires
            if on_result is not None:
                on_result(response.is_success, response)

        def on_timeout() -> None:
            self.registered = False
            if on_result is not None:
                on_result(False, None)

        self.transactions.send_request(request, destination, on_response, on_timeout)

    def unregister(self, on_result: RegistrationCallback | None = None) -> None:
        self.register(expires=0, on_result=on_result)

    # -- outgoing calls ----------------------------------------------------------------
    def call(
        self,
        target: str | SipUri,
        sdp: SessionDescription | None = None,
        on_state: Callable[[Call], None] | None = None,
    ) -> OutgoingCall:
        """Place a call to ``target`` (an AOR such as ``sip:bob@voicehoc.ch``)."""
        target_uri = SipUri.parse(target) if isinstance(target, str) else target
        call_id = new_call_id(self.sim, self.transport.address)
        call = OutgoingCall(self, call_id, target_uri)
        call.on_state = on_state
        if sdp is None:
            sdp = SessionDescription.offer(self.transport.address, _allocate_rtp_port(self.sim))
        call.local_sdp = sdp

        headers = Headers()
        identity = NameAddr(uri=self.aor.without_params(), display_name=self.display_name)
        headers.add("From", str(identity.with_tag(new_tag(self.sim))))
        headers.add("To", str(NameAddr(uri=target_uri.without_params())))
        headers.add("Call-ID", call_id)
        headers.add("CSeq", "1 INVITE")
        headers.add("Max-Forwards", "70")
        headers.add("Contact", f"<{self.contact_uri}>")
        if self.alt_contact_uri is not None:
            headers.add(ALT_CONTACT_HEADER, f"<{self.alt_contact_uri}>")
        headers.add("Content-Type", "application/sdp")
        invite = SipRequest("INVITE", target_uri.without_params(), headers=headers)
        invite.body = sdp.serialize()
        call._invite = invite
        self._calls_by_id[call_id] = call
        call._set_state(CallState.CALLING)
        self.transactions.send_request(
            invite,
            self._destination_for(target_uri),
            on_response=call._on_response,
            on_timeout=call._on_timeout,
        )
        return call

    # -- presence (RFC 3265 / RFC 3856) -----------------------------------------------
    def set_presence(self, status: PresenceStatus) -> None:
        """Update our presence document and NOTIFY every active watcher."""
        self.presence = status
        now = self.sim.now
        for call_id, watcher in list(self._watchers.items()):
            if watcher.is_active(now):
                self._send_notify(watcher, "active")
            else:
                del self._watchers[call_id]

    @property
    def watcher_count(self) -> int:
        now = self.sim.now
        return sum(1 for watcher in self._watchers.values() if watcher.is_active(now))

    def subscribe(
        self,
        target: str | SipUri,
        on_notify: NotifyHandler | None = None,
        expires: int = 300,
    ) -> Subscription:
        """Subscribe to ``target``'s presence; NOTIFYs arrive via callback."""
        target_uri = SipUri.parse(target) if isinstance(target, str) else target
        subscription = Subscription(self, target_uri, expires)
        subscription.on_notify = on_notify
        self._subscriptions[subscription.call_id] = subscription

        headers = Headers()
        identity = NameAddr(uri=self.aor.without_params(), display_name=self.display_name)
        headers.add("From", str(identity.with_tag(new_tag(self.sim))))
        headers.add("To", str(NameAddr(uri=target_uri.without_params())))
        headers.add("Call-ID", subscription.call_id)
        headers.add("CSeq", "1 SUBSCRIBE")
        headers.add("Max-Forwards", "70")
        headers.add("Contact", f"<{self.contact_uri}>")
        headers.add("Event", "presence")
        headers.add("Expires", str(expires))
        request = SipRequest("SUBSCRIBE", target_uri.without_params(), headers=headers)

        def on_response(response: SipResponse) -> None:
            if not response.is_success:
                subscription.terminated = True
                self._subscriptions.pop(subscription.call_id, None)
                return
            try:
                subscription.dialog = Dialog.from_response(request, response)
            except SipDialogError:
                return
            subscription.active = True
            subscription._start_refresh()

        self.transactions.send_request(
            request,
            self._destination_for(target_uri),
            on_response,
            on_timeout=lambda: setattr(subscription, "terminated", True),
        )
        return subscription

    def _handle_subscribe(self, request: SipRequest, txn: ServerTransaction | None) -> None:
        event = (request.headers.get("Event") or "").lower()
        if event != "presence":
            if txn is not None:
                txn.send_response(request.create_response(489, "Bad Event"))
            return
        expires = request.expires(300)
        if expires is None:
            if txn is not None:
                txn.send_response(request.create_response(400))
            return
        to = request.to
        if to is not None and to.tag is not None:
            # In-dialog refresh or termination.
            watcher = self._watchers.get(request.call_id or "")
            if watcher is None:
                if txn is not None:
                    txn.send_response(request.create_response(481))
                return
            if expires == 0:
                if txn is not None:
                    txn.send_response(request.create_response(200))
                self._send_notify(watcher, "terminated")
                self._watchers.pop(request.call_id or "", None)
            else:
                watcher.expires_at = self.sim.now + expires
                if txn is not None:
                    txn.send_response(request.create_response(200))
            return
        local_tag = new_tag(self.sim)
        dialog = Dialog.from_request(request, local_tag, self.contact_uri)
        watcher = _Watcher(dialog=dialog, expires_at=self.sim.now + max(1, expires))
        self._watchers[request.call_id or ""] = watcher
        if txn is not None:
            response = request.create_response(200, to_tag=local_tag)
            response.headers.add("Contact", f"<{self.contact_uri}>")
            response.headers.add("Expires", str(expires))
            txn.send_response(response)
        # RFC 3265: an immediate NOTIFY with the current state.
        self.sim.schedule(0.0, self._send_notify, watcher, "active")

    def _send_notify(self, watcher: _Watcher, substate: str) -> None:
        notify = watcher.dialog.create_request("NOTIFY")
        notify.headers.add("Event", "presence")
        remaining = max(0, int(watcher.expires_at - self.sim.now))
        notify.headers.add("Subscription-State", f"{substate};expires={remaining}")
        notify.headers.add("Content-Type", PIDF_CONTENT_TYPE)
        notify.body = build_pidf(self.aor.address_of_record, self.presence)
        call_id = watcher.dialog.call_id

        def on_response(response: SipResponse) -> None:
            if response.status == 481:  # watcher is gone
                self._watchers.pop(call_id, None)

        self.transactions.send_request(
            notify, watcher.dialog.next_hop(), on_response,
            on_timeout=lambda: self._watchers.pop(call_id, None),
        )

    def _handle_notify(self, request: SipRequest, txn: ServerTransaction | None) -> None:
        subscription = self._subscriptions.get(request.call_id or "")
        if subscription is None:
            if txn is not None:
                txn.send_response(request.create_response(481))
            return
        if txn is not None:
            txn.send_response(request.create_response(200))
        if request.body:
            try:
                _, status = parse_pidf(request.body)
                subscription.status = status
            except SipParseError:
                pass
        substate_raw = (request.headers.get("Subscription-State") or "active").lower()
        if substate_raw.startswith("terminated"):
            subscription.terminated = True
            subscription.active = False
            self._subscriptions.pop(subscription.call_id, None)
        else:
            subscription.active = True
        if subscription.on_notify is not None:
            subscription.on_notify(subscription)

    # -- instant messaging (RFC 3428 pager mode) ------------------------------------
    def send_message(
        self,
        target: str | SipUri,
        text: str,
        on_result: MessageResultCallback | None = None,
    ) -> None:
        """Send a pager-mode instant message (SIP MESSAGE) to ``target``."""
        target_uri = SipUri.parse(target) if isinstance(target, str) else target
        headers = Headers()
        identity = NameAddr(uri=self.aor.without_params(), display_name=self.display_name)
        headers.add("From", str(identity.with_tag(new_tag(self.sim))))
        headers.add("To", str(NameAddr(uri=target_uri.without_params())))
        headers.add("Call-ID", new_call_id(self.sim, self.transport.address))
        headers.add("CSeq", "1 MESSAGE")
        headers.add("Max-Forwards", "70")
        headers.add("Content-Type", "text/plain")
        request = SipRequest("MESSAGE", target_uri.without_params(), headers=headers)
        request.body = text.encode("utf-8")

        def on_response(response: SipResponse) -> None:
            if on_result is not None:
                on_result(response.is_success, response.status)

        def on_timeout() -> None:
            if on_result is not None:
                on_result(False, None)

        self.transactions.send_request(
            request, self._destination_for(target_uri), on_response, on_timeout
        )

    def _handle_message(self, request: SipRequest, txn: ServerTransaction | None) -> None:
        if self.on_message is None:
            if txn is not None:
                txn.send_response(request.create_response(405))
            return
        try:
            text = request.body.decode("utf-8")
        except UnicodeDecodeError:
            if txn is not None:
                txn.send_response(request.create_response(400))
            return
        from_ = request.from_
        sender = from_.uri if from_ is not None else SipUri(user=None, host="unknown")
        if txn is not None:
            txn.send_response(request.create_response(200))
        self.on_message(text, sender)

    def _destination_for(self, target: SipUri) -> Address:
        if self.outbound_proxy is not None:
            return self.outbound_proxy
        return (target.host, target.effective_port())

    # -- incoming requests -----------------------------------------------------------------
    def _on_request(
        self, request: SipRequest, txn: ServerTransaction | None, source: Address
    ) -> None:
        method = request.method
        if method == "INVITE" and txn is not None:
            to = request.to
            if to is not None and to.tag is not None:
                # Mid-dialog re-INVITE (hold/resume/session refresh).
                existing = self._find_dialog_call(request)
                if existing is not None:
                    existing._handle_reinvite(request, txn)
                else:
                    txn.send_response(request.create_response(481))
                return
            call = IncomingCall(self, request, txn)
            self._calls_by_id[call.call_id] = call
            txn.send_response(request.create_response(100))
            if self.on_invite is not None:
                self.on_invite(call)
            else:
                call.reject(480)
            return
        if method == "ACK":
            call = self._find_dialog_call(request)
            if isinstance(call, IncomingCall):
                call._on_ack()
            return
        if method == "CANCEL":
            if txn is not None:
                txn.send_response(request.create_response(200))
            call = self._calls_by_id.get(request.call_id or "")
            if isinstance(call, IncomingCall):
                call._on_cancel()
            return
        if method == "BYE":
            call = self._find_dialog_call(request)
            if call is not None:
                call._handle_bye(request, txn)
            elif txn is not None:
                txn.send_response(request.create_response(481))
            return
        if method == "OPTIONS" and txn is not None:
            txn.send_response(request.create_response(200))
            return
        if method == "MESSAGE":
            self._handle_message(request, txn)
            return
        if method == "SUBSCRIBE":
            self._handle_subscribe(request, txn)
            return
        if method == "NOTIFY":
            self._handle_notify(request, txn)
            return
        if txn is not None:
            txn.send_response(request.create_response(501))

    # -- dialog registry ---------------------------------------------------------------------
    def _register_dialog(self, dialog: Dialog, call: Call) -> None:
        self._dialogs[dialog.key] = call

    def _find_dialog_call(self, request: SipRequest) -> Call | None:
        from_ = request.from_
        to = request.to
        call_id = request.call_id or ""
        remote_tag = from_.tag if from_ is not None else None
        local_tag = to.tag if to is not None else None
        return self._dialogs.get((call_id, local_tag or "", remote_tag or ""))

    def _forget_call(self, call: Call) -> None:
        self._calls_by_id.pop(call.call_id, None)
        if call.dialog is not None:
            self._dialogs.pop(call.dialog.key, None)

    @property
    def active_calls(self) -> list[Call]:
        return [call for call in self._calls_by_id.values() if call.is_active]

    def has_active_call(self) -> bool:
        """``bool(self.active_calls)`` without building the list."""
        return any(call.is_active for call in self._calls_by_id.values())
