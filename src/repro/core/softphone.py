"""The VoIP application: an out-of-the-box SIP softphone.

Stands in for Kphone/Twinkle/Linphone on the laptops and Minisip on the
iPAQs. Crucially it contains *zero* MANET-specific code: it is configured
exactly like Figure 2 — a username, a provider domain, and an outbound
proxy pointing at localhost — and speaks plain SIP. Everything ad hoc
happens in the SIPHoc proxy underneath.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable

from repro.core.config import SipAccount
from repro.netsim.node import Node
from repro.rtp.codecs import (
    AUXILIARY_PAYLOAD_TYPES,
    Codec,
    G711,
    H263,
    RED_PAYLOAD_TYPE,
    codec_for_payload_type,
)
from repro.rtp.jitter import JitterPolicy
from repro.rtp.quality import CallQuality
from repro.rtp.session import RtpSession, check_redundancy
from repro.sip.pidf import AVAILABLE, OFFLINE, ON_THE_PHONE, PresenceStatus
from repro.sip.sdp import SessionDescription
from repro.sip.ua import Call, CallState, IncomingCall, OutgoingCall, Subscription, UserAgent
from repro.sip.uri import SipUri


#: Seconds an AUTO-answering phone rings before it picks up.
ANSWER_DELAY = 0.5


class AnswerMode(enum.Enum):
    AUTO = "auto"  # ring, then answer after ``ANSWER_DELAY``
    MANUAL = "manual"  # ring, then wait for the application callback
    REJECT = "reject"  # 486 Busy Here


@dataclass
class CallRecord:
    """One entry of the softphone's call history."""

    direction: str  # "out" | "in"
    peer: str
    placed_at: float
    ringing_at: float | None = None
    established_at: float | None = None
    ended_at: float | None = None
    final_state: str = ""
    failure_status: int | None = None
    #: Retry-After seconds from the failure response, if any (§5f).
    retry_after: int | None = None
    quality: CallQuality | None = None
    video: "VideoStats | None" = None

    @property
    def established(self) -> bool:
        return self.established_at is not None

    @property
    def setup_delay(self) -> float | None:
        if self.established_at is None:
            return None
        return self.established_at - self.placed_at

    @property
    def post_dial_delay(self) -> float | None:
        """Time from dialing to ringback — the paper-relevant setup metric
        (excludes how long the callee takes to pick up)."""
        if self.ringing_at is None:
            return None
        return self.ringing_at - self.placed_at

    @property
    def talk_time(self) -> float | None:
        if self.established_at is None or self.ended_at is None:
            return None
        return self.ended_at - self.established_at


@dataclass
class VideoStats:
    """Receiver-side statistics of a video stream."""

    frames_expected: int
    frames_received: int
    mean_delay: float

    @property
    def loss_ratio(self) -> float:
        if self.frames_expected == 0:
            return 0.0
        return max(0.0, 1.0 - self.frames_received / self.frames_expected)

    @property
    def watchable(self) -> bool:
        """Under ~5 % frame loss is generally considered watchable."""
        return self.loss_ratio < 0.05


@dataclass
class TextMessage:
    """One instant message in the softphone's inbox/outbox."""

    direction: str  # "out" | "in"
    peer: str
    text: str
    at: float
    delivered: bool | None = None
    status: int | None = None


class SoftPhone:
    """A SIP softphone with optional simulated voice media."""

    def __init__(
        self,
        node: Node,
        account: SipAccount,
        port: int = 5070,
        codec: Codec = G711,
        answer_mode: AnswerMode = AnswerMode.AUTO,
        media: bool = True,
        playout_delay: float = 0.06,
        jitter_policy: JitterPolicy | None = None,
        redundancy: int = 0,
        video: bool = False,
    ) -> None:
        # Fail at construction, not mid-call inside the event loop.
        check_redundancy(redundancy, codec)
        self.node = node
        self.sim = node.sim
        self.account = account
        self.codec = codec
        self.answer_mode = answer_mode
        self.media = media
        self.playout_delay = playout_delay
        #: Media-plane knobs (§5j): playout policy and RFC 2198 depth.
        #: Redundancy is used on a call only when both ends negotiated the
        #: red payload type in SDP.
        self.jitter_policy = jitter_policy
        self.redundancy = redundancy
        self.video = video
        self._video_sessions: dict[str, RtpSession] = {}
        if account.uses_local_proxy:
            outbound = ("127.0.0.1", account.outbound_proxy_port)
        else:
            outbound = (account.outbound_proxy, account.outbound_proxy_port)
        self.ua = UserAgent(
            node,
            aor=account.aor,
            port=port,
            display_name=account.display_name,
            outbound_proxy=outbound,
            credentials=account.credentials,
        )
        self.ua.on_invite = self._on_invite
        self.ua.on_message = self._on_text
        self.history: list[CallRecord] = []
        self.inbox: list[TextMessage] = []
        self.outbox: list[TextMessage] = []
        self._records: dict[str, CallRecord] = {}
        self._media_sessions: dict[str, RtpSession] = {}
        self._refresh_task = None
        self.buddies: dict[str, PresenceStatus] = {}
        self._buddy_subscriptions: dict[str, Subscription] = {}
        self.on_incoming: Callable[[IncomingCall], None] | None = None
        self.on_text: Callable[["TextMessage"], None] | None = None
        self.on_buddy_change: Callable[[str, PresenceStatus], None] | None = None

    @property
    def media_sessions(self) -> list[RtpSession]:
        """Open RTP sessions, one per active call leg (metrics gauge)."""
        return list(self._media_sessions.values())

    def media_session(self, call_id: str) -> RtpSession | None:
        """The RTP session of one call, if media is flowing (§5k policy)."""
        return self._media_sessions.get(call_id)

    def migrate_call(
        self, call: Call, on_result: Callable[[bool], None] | None = None
    ) -> None:
        """Re-anchor an established call to this node's wired address (§5k).

        Rewrites the UA's transport address (so the migration re-INVITE's
        Via and Contact name the surviving interface), then delegates to
        :meth:`repro.sip.ua.Call.migrate`. The RTP session keeps its
        socket, SSRC and sequence space; only the remote endpoint moves,
        via the usual ``on_media`` re-anchor hook.
        """
        new_address = self.node.wired_ip
        if new_address is None or call.local_sdp is None:
            if on_result is not None:
                on_result(False)
            return
        self.ua.transport.address_override = new_address
        self.ua.alt_contact_uri = SipUri(
            user=self.ua.aor.user, host=new_address, port=self.ua.transport.port
        )
        call.migrate(call.local_sdp.with_address(new_address), on_result)

    # -- lifecycle ------------------------------------------------------------------
    def start(
        self,
        register: bool = True,
        expires: int = 3600,
        on_registered: Callable[[bool], None] | None = None,
    ) -> "SoftPhone":
        """Boot the phone; by default it immediately registers (step 1) and
        keeps the binding alive by re-registering at half the expiry."""
        if register:
            self.ua.register(
                expires=expires,
                on_result=(lambda ok, resp: on_registered(ok)) if on_registered else None,
            )
            if self._refresh_task is None and expires > 1:
                self._refresh_task = self.sim.schedule_periodic(
                    expires / 2, lambda: self.ua.register(expires=expires), jitter=0.05
                )
        return self

    def stop(self) -> None:
        self.ua.set_presence(OFFLINE)  # last NOTIFY to watchers before we go
        for subscription in self._buddy_subscriptions.values():
            subscription.terminate()
        self._buddy_subscriptions.clear()
        if self._refresh_task is not None:
            self._refresh_task.stop()
            self._refresh_task = None
        for session in self._media_sessions.values():
            session.close()
        self._media_sessions.clear()
        for session in self._video_sessions.values():
            session.close()
        self._video_sessions.clear()
        self.ua.close()

    @property
    def registered(self) -> bool:
        return self.ua.registered

    @property
    def aor(self) -> str:
        return self.account.aor.address_of_record

    # -- calling -----------------------------------------------------------------------
    def place_call(
        self,
        target: str,
        duration: float | None = None,
        on_state: Callable[[Call], None] | None = None,
    ) -> OutgoingCall:
        """Dial ``target`` (an AOR). ``duration`` auto-hangs-up after connect."""
        record = CallRecord(direction="out", peer=target, placed_at=self.sim.now)
        self.history.append(record)

        def state_hook(call: Call) -> None:
            self._track_call(call, record, duration)
            if on_state is not None:
                on_state(call)

        sdp = SessionDescription.offer(
            self.ua.transport.address,
            _next_media_port(self.node),
            payload_types=[self.codec.payload_type, *self._extension_payloads()],
            video_port=_next_media_port(self.node) if self.video else None,
            video_payloads=[H263.payload_type] if self.video else None,
        )
        call = self.ua.call(target, sdp=sdp, on_state=state_hook)
        self._records[call.call_id] = record
        return call

    # -- presence ------------------------------------------------------------------------
    @property
    def presence(self) -> PresenceStatus:
        return self.ua.presence

    def watch(
        self,
        target: str,
        on_change: Callable[[str, PresenceStatus], None] | None = None,
        expires: int = 300,
    ) -> Subscription:
        """Subscribe to a buddy's presence; state lands in ``self.buddies``."""

        def on_notify(subscription: Subscription) -> None:
            if subscription.terminated and target not in self._buddy_subscriptions:
                return  # we unwatched; ignore the final NOTIFY
            if subscription.status is not None:
                self.buddies[target] = subscription.status
                if on_change is not None:
                    on_change(target, subscription.status)
                if self.on_buddy_change is not None:
                    self.on_buddy_change(target, subscription.status)

        subscription = self.ua.subscribe(target, on_notify=on_notify, expires=expires)
        self._buddy_subscriptions[target] = subscription
        return subscription

    def unwatch(self, target: str) -> None:
        subscription = self._buddy_subscriptions.pop(target, None)
        if subscription is not None:
            subscription.terminate()
        self.buddies.pop(target, None)

    def _update_own_presence(self) -> None:
        busy = self.ua.has_active_call()
        desired = ON_THE_PHONE if busy else AVAILABLE
        if self.ua.presence != desired:
            self.ua.set_presence(desired)

    # -- instant messaging -------------------------------------------------------------
    def send_text(
        self,
        target: str,
        text: str,
        on_result: Callable[[bool, int | None], None] | None = None,
    ) -> "TextMessage":
        """Send an instant message (the paper's 'text communicator' use)."""
        message = TextMessage(
            direction="out", peer=target, text=text, at=self.sim.now
        )
        self.outbox.append(message)

        def result(ok: bool, status: int | None) -> None:
            message.delivered = ok
            message.status = status
            if on_result is not None:
                on_result(ok, status)

        self.ua.send_message(target, text, on_result=result)
        return message

    def _on_text(self, text: str, sender) -> None:
        message = TextMessage(
            direction="in",
            peer=sender.address_of_record,
            text=text,
            at=self.sim.now,
            delivered=True,
        )
        self.inbox.append(message)
        if self.on_text is not None:
            self.on_text(message)

    # -- incoming ----------------------------------------------------------------------
    def _on_invite(self, call: IncomingCall) -> None:
        peer = str(call.caller) if call.caller is not None else "unknown"
        record = CallRecord(direction="in", peer=peer, placed_at=self.sim.now)
        self.history.append(record)
        self._records[call.call_id] = record
        call.on_state = functools.partial(self._track_call, record=record, duration=None)
        if self.answer_mode is AnswerMode.REJECT:
            call.reject(486)
            return
        call.ring()
        if self.answer_mode is AnswerMode.AUTO:
            self.sim.schedule(ANSWER_DELAY, self._auto_answer, call)
        elif self.on_incoming is not None:
            self.on_incoming(call)

    def _auto_answer(self, call: IncomingCall) -> None:
        if call.state is CallState.RINGING:
            sdp = None
            if call.remote_sdp is not None:
                wants_video = self.video and call.remote_sdp.video is not None
                sdp = call.remote_sdp.answer(
                    self.ua.transport.address,
                    _next_media_port(self.node),
                    video_port=_next_media_port(self.node) if wants_video else None,
                    accept_payloads=frozenset(self._extension_payloads()),
                )
            call.answer(sdp)

    # -- shared call tracking --------------------------------------------------------------
    def _track_call(self, call: Call, record: CallRecord, duration: float | None) -> None:
        if call.state is CallState.RINGING and record.ringing_at is None:
            record.ringing_at = self.sim.now
        if call.state is CallState.ESTABLISHED:
            record.established_at = self.sim.now
            self._start_media(call, record)
            if duration is not None:
                self.sim.schedule(duration, self._hangup_if_active, call)
        elif call.state in (CallState.TERMINATED, CallState.FAILED):
            record.ended_at = self.sim.now
            record.final_state = call.state.value
            record.failure_status = call.failure_status
            record.retry_after = call.retry_after
            self._stop_media(call, record)
        self._update_own_presence()

    def _hangup_if_active(self, call: Call) -> None:
        if call.state is CallState.ESTABLISHED:
            call.hangup()

    # -- media ------------------------------------------------------------------------------
    def _extension_payloads(self) -> list[int]:
        """Auxiliary payload types this phone advertises in SDP (§5j)."""
        return [RED_PAYLOAD_TYPE] if self.redundancy > 0 else []

    def _start_media(self, call: Call, record: CallRecord) -> None:
        if not self.media or call.local_sdp is None:
            return
        remote = call.remote_rtp_endpoint
        audio = call.local_sdp.audio
        if remote is None or audio is None:
            return
        codec = self.codec
        local_payloads = audio.payload_types
        codec_payloads = [pt for pt in local_payloads if pt not in AUXILIARY_PAYLOAD_TYPES]
        if codec_payloads:
            try:
                codec = codec_for_payload_type(codec_payloads[0])
            except Exception:
                codec = self.codec
        # RFC 2198 only runs when both sides listed the red payload type.
        remote_audio = call.remote_sdp.audio if call.remote_sdp is not None else None
        remote_payloads = remote_audio.payload_types if remote_audio is not None else []
        red_negotiated = (
            RED_PAYLOAD_TYPE in local_payloads and RED_PAYLOAD_TYPE in remote_payloads
        )
        session = RtpSession(
            self.node,
            local_port=audio.port,
            remote=remote,
            codec=codec,
            playout_delay=self.playout_delay,
            jitter_policy=self.jitter_policy,
            redundancy=self.redundancy if red_negotiated else 0,
        )
        session.start_sending()
        self._media_sessions[call.call_id] = session
        call.on_media = self._on_media_update
        self._start_video(call)

    def _start_video(self, call: Call) -> None:
        if not self.video or call.local_sdp is None or call.remote_sdp is None:
            return
        local_video = call.local_sdp.video
        remote_endpoint = call.remote_sdp.video_endpoint
        if local_video is None or remote_endpoint is None:
            return
        session = RtpSession(
            self.node,
            local_port=local_video.port,
            remote=remote_endpoint,
            codec=H263,
            playout_delay=self.playout_delay,
        )
        session.start_sending()
        self._video_sessions[call.call_id] = session

    def _on_media_update(self, call: Call) -> None:
        """React to a re-INVITE: pause or resume the RTP streams."""
        session = self._media_sessions.get(call.call_id)
        video = self._video_sessions.get(call.call_id)
        if call.media_direction in ("sendrecv", "sendonly"):
            remote = call.remote_rtp_endpoint
            if session is not None and remote is not None:
                session.start_sending(remote)
            if video is not None and call.remote_sdp is not None:
                video_remote = call.remote_sdp.video_endpoint
                if video_remote is not None:
                    video.start_sending(video_remote)
        else:
            if session is not None:
                session.stop_sending()
            if video is not None:
                video.stop_sending()

    # -- hold / resume ------------------------------------------------------------
    def hold(self, call: Call, on_result=None) -> None:
        """Put an established call on hold (re-INVITE, media inactive)."""
        call.hold(on_result)
        self._on_media_update(call)

    def resume(self, call: Call, on_result=None) -> None:
        """Take a held call off hold (re-INVITE, media sendrecv)."""
        call.resume(on_result)
        self._on_media_update(call)

    def _stop_media(self, call: Call, record: CallRecord) -> None:
        video = self._video_sessions.pop(call.call_id, None)
        if video is not None:
            video.stop_sending()
            if video.packets_received > 0:
                delays = video.delays
                record.video = VideoStats(
                    frames_expected=video.packets_expected,
                    frames_received=video.packets_received,
                    mean_delay=sum(delays) / len(delays) if delays else 0.0,
                )
            video.close()
        session = self._media_sessions.pop(call.call_id, None)
        if session is None:
            return
        session.stop_sending()
        talk_time = record.talk_time
        expected = None
        if talk_time is not None and talk_time > 0:
            expected = max(1, int(talk_time / session.codec.frame_interval) - 1)
        if session.packets_received > 0:
            record.quality = session.quality(expected_override=expected)
        session.close()

    # -- reporting -----------------------------------------------------------------------------
    def established_calls(self) -> list[CallRecord]:
        return [record for record in self.history if record.established]

    def failed_calls(self) -> list[CallRecord]:
        return [
            record
            for record in self.history
            if record.final_state == "failed" and not record.established
        ]


_MEDIA_PORT_ATTR = "_softphone_next_media_port"


def _next_media_port(node: Node) -> int:
    """Per-node even RTP port allocator (RTP convention)."""
    port = getattr(node, _MEDIA_PORT_ATTR, 16384)
    setattr(node, _MEDIA_PORT_ATTR, port + 2)
    return port
