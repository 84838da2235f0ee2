"""Connection Provider: keeps the node attached to the Internet when possible.

Periodically looks for a ``gateway.siphoc`` service via MANET SLP; when one
appears, opens a layer-2 tunnel to it. Monitors lease renewals and tears the
tunnel down (then resumes polling) if the gateway stops answering — e.g.
after the gateway node leaves the MANET. Components interested in
connectivity (the SIPHoc proxy's WAN leg) subscribe to the callbacks.

Where the routing plugin floods every advert to every node (OLSR), a
network lookup that finds nothing backs off like a failed connect, while
every poll still reads the local cache, which the flood fills. A lookup
sent before the node's messages flood past its 1-hop neighbours
(``FLOOD_SETTLE_TIME`` after start) reaches too few nodes to count as a
miss. Under AODV each poll's lookup goes out: its RREQ also carries the
node's queued adverts.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable

from repro.core.manet_slp import ManetSlp
from repro.core.tunnel import TunnelClient
from repro.netsim.node import Node
from repro.sip.ua import Call, CallState
from repro.sip.uri import SipUri
from repro.slp.service import SERVICE_GATEWAY, ServiceEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.softphone import SoftPhone
    from repro.core.stack import SiphocStack

ConnectivityCallback = Callable[[str], None]


def node_backoff_rng(node: Node, salt: int = 0) -> random.Random:
    """A private RNG for retry jitter, pinned by (scenario seed, node id).

    Separate from ``sim.rng`` on purpose: drawing jitter from the shared
    stream would perturb every later draw and break bit-identity of runs
    that never retry. Integer arithmetic only — no string hashing — so the
    seed is stable across interpreter processes.
    """
    return random.Random((node.sim.seed * 1_000_003 + node.node_id) * 127 + salt)


def backoff_with_jitter(
    base: float,
    consecutive_failures: int,
    max_backoff: float,
    rng: random.Random,
    jitter: float = 0.5,
) -> float:
    """Exponential backoff ``base * 2^(n-1)`` capped at ``max_backoff``,
    stretched by up to ``jitter`` fraction so synchronized clients that
    failed in lockstep (e.g. on one gateway crash) desynchronize."""
    delay = min(base * (2 ** (consecutive_failures - 1)), max_backoff)
    return delay * (1.0 + jitter * rng.random())


class ConnectionProvider:
    """Maintains this node's tunnel to whatever gateway is reachable."""

    POLL_INTERVAL = 5.0
    #: How long a gateway that failed on us is deprioritized in selection.
    GATEWAY_COOLDOWN = 30.0
    #: Upper bound on the consecutive-failure retry backoff.
    MAX_BACKOFF = 60.0

    def __init__(self, node: Node, manet_slp: ManetSlp) -> None:
        self.node = node
        self.sim = node.sim
        self.manet_slp = manet_slp
        self.tunnel: TunnelClient | None = None
        self._poll_task = None
        self._connecting = False
        # Failed-gateway bookkeeping: gateway ip -> cooldown-until time, plus
        # exponential backoff across consecutive connect failures so a node
        # cut off from every gateway doesn't flood the MANET with lookups.
        self._failed: dict[str, float] = {}
        self._consecutive_failures = 0
        self._retry_at = 0.0
        # Network lookups that found nothing in a row, and when the next may
        # go out. Misses count only where adverts flood to every node's
        # cache, and only for lookups sent from ``_counts_misses_from`` on.
        self._lookup_misses = 0
        self._lookup_at = 0.0
        self._lookup_sent_at = 0.0
        self._counts_misses_from = math.inf
        self._backoff_rng = node_backoff_rng(node)
        self.on_connected: ConnectivityCallback | None = None
        self.on_disconnected: Callable[[], None] | None = None

    @property
    def connected(self) -> bool:
        return self.tunnel is not None and self.tunnel.connected

    @property
    def tunnel_ip(self) -> str | None:
        return self.tunnel.tunnel_ip if self.tunnel is not None else None

    def start(self) -> "ConnectionProvider":
        if self._poll_task is None:
            settle = self.manet_slp.handler.FLOOD_SETTLE_TIME
            if settle is not None:
                self._counts_misses_from = self.sim.now + settle
            self._poll_task = self.sim.schedule_periodic(
                self.POLL_INTERVAL, self._poll, jitter=0.2, initial_delay=0.5
            )
        return self

    def stop(self) -> None:
        if self._poll_task is not None:
            self._poll_task.stop()
            self._poll_task = None
        self._teardown()

    # -- polling --------------------------------------------------------------
    def _prune_failed(self) -> None:
        """Drop expired cooldown entries on every lookup.

        Without this the map only shrank inside ``_on_gateways`` — which
        never runs while connected or while lookups come back empty — so
        expired entries accumulated for the life of a long run.
        """
        if not self._failed:
            return
        now = self.sim.now
        self._failed = {
            ip: until for ip, until in self._failed.items() if until > now
        }

    def _poll(self) -> None:
        self._prune_failed()
        if self._connecting:
            return
        if self.connected:
            self._check_liveness()
            return
        if self.node.wired_ip is not None:
            return  # we *are* the Internet attachment; no tunnel needed
        if self.sim.now < self._retry_at:
            return  # backing off after consecutive connect failures
        if self.sim.now < self._lookup_at and not self.manet_slp.lookup_cached(
            SERVICE_GATEWAY
        ):
            return  # backing off after empty lookups; the cache read sends nothing
        self._lookup_sent_at = self.sim.now
        self.manet_slp.find_services(SERVICE_GATEWAY, callback=self._on_gateways)

    def _on_gateways(self, entries: list[ServiceEntry]) -> None:
        if self._poll_task is None:
            return  # stopped (or crashed) since the lookup was launched
        if not entries:
            if self._lookup_sent_at >= self._counts_misses_from:
                self._lookup_misses += 1
                self._lookup_at = self._backoff_until(self._lookup_misses)
            return
        self._lookup_misses = 0
        self._lookup_at = 0.0
        if self._connecting or self.connected:
            return
        self._prune_failed()
        # Prefer gateways that haven't recently failed on us; if every
        # candidate is cooling down, fall back to all of them rather than
        # staying offline (the cooldown is a preference, not a blacklist).
        usable = [e for e in entries if e.url.host not in self._failed]
        entry = min(usable or entries, key=self._gateway_metric)
        self._connecting = True
        tunnel = TunnelClient(self.node, entry.url.host)
        tunnel.on_disconnect = self._on_tunnel_down
        self.tunnel = tunnel
        tunnel.connect(self._on_connect_result)

    def _gateway_metric(self, entry: ServiceEntry) -> tuple[int, str]:
        """Prefer the closest gateway (known hop count), break ties by IP."""
        hops = None
        router = self.node.router
        if router is not None and hasattr(router, "hop_count_to"):
            hops = router.hop_count_to(entry.url.host)
        return (hops if hops is not None else 1_000, entry.url.host)

    def _on_connect_result(self, success: bool) -> None:
        self._connecting = False
        if not success:
            failed_ip = self.tunnel.gateway_ip if self.tunnel is not None else None
            self._note_gateway_failure(failed_ip)
            self._teardown()
            return
        assert self.tunnel is not None and self.tunnel.tunnel_ip is not None
        self._failed.pop(self.tunnel.gateway_ip, None)
        self._consecutive_failures = 0
        self._retry_at = 0.0
        self.node.stats.increment("connection.established")
        if self.on_connected is not None:
            self.on_connected(self.tunnel.tunnel_ip)

    def _check_liveness(self) -> None:
        assert self.tunnel is not None
        last_ack = self.tunnel.last_ack_at
        deadline = 2 * self.tunnel.RENEW_INTERVAL + 5.0
        if last_ack is not None and self.sim.now - last_ack > deadline:
            self.node.stats.increment("connection.gateway_lost")
            self._note_gateway_failure(self.tunnel.gateway_ip)
            self._teardown()

    def _note_gateway_failure(self, gateway_ip: str | None) -> None:
        """Cooldown the failed gateway; back off exponentially on repeats."""
        if gateway_ip is not None:
            self._failed[gateway_ip] = self.sim.now + self.GATEWAY_COOLDOWN
            self.node.stats.increment("connection.gateway_failures")
        self._consecutive_failures += 1
        self._retry_at = self._backoff_until(self._consecutive_failures)

    def _backoff_until(self, failures: int) -> float:
        """When the jittered backoff after ``failures`` in a row ends."""
        return self.sim.now + backoff_with_jitter(
            self.POLL_INTERVAL, failures, self.MAX_BACKOFF, self._backoff_rng
        )

    def _on_tunnel_down(self) -> None:
        # Fires both from our own _teardown (self.tunnel already None) and
        # when the tunnel closes itself, e.g. on a gateway NACK for a lost
        # lease. In the latter case re-poll promptly — the gateway is alive
        # and answering, so a fresh lease is one REQUEST away.
        unsolicited = self.tunnel is not None
        self.tunnel = None
        if self.on_disconnected is not None:
            self.on_disconnected()
        if unsolicited and self._poll_task is not None:
            self.sim.schedule(0.0, self._poll)

    def _teardown(self) -> None:
        tunnel, self.tunnel = self.tunnel, None
        self._connecting = False
        if tunnel is not None and not tunnel.closed:
            tunnel.disconnect()


class _HandoverAttempt:
    """Book-keeping for one call currently being migrated."""

    __slots__ = (
        "phone", "call", "cause", "mode", "started_at", "last_rx_before",
        "attempts", "seq", "resolved", "completed_at",
    )

    def __init__(
        self,
        phone: "SoftPhone",
        call: Call,
        cause: str,
        mode: str,
        started_at: float,
        last_rx_before: float,
    ) -> None:
        self.phone = phone
        self.call = call
        self.cause = cause
        self.mode = mode
        self.started_at = started_at
        self.last_rx_before = last_rx_before
        self.attempts = 0
        self.seq = 0
        self.resolved = False
        self.completed_at: float | None = None


class HandoverPolicy:
    """Mid-call multihomed handover: move live calls off a dying radio (§5k).

    Layered on the same failure machinery as the gateway failover above:
    the private integer-seeded RNG for retry jitter, exponential backoff
    with a ceiling, and explicit give-up instead of wedging. Three triggers
    decide that the MANET path is gone:

    * ``interface_down`` — the radio was administratively disabled (fault
      injection, driver death); fires synchronously from the interface
      observer hook.
    * ``neighbor_loss`` — the wireless neighbor set has been empty for a
      full hysteresis window (the node drifted past the mesh horizon).
    * ``rtp_silence`` — an established call stopped receiving media for
      ``RTP_SILENCE_TIMEOUT`` (covers asymmetric failures the first two
      miss).

    Migration is make-before-break when the wired uplink is already up,
    break-before-make otherwise (the policy raises the uplink first). Each
    attempt is a handover re-INVITE (:meth:`repro.sip.ua.Call.migrate`)
    re-anchoring signaling and media to the wired address while the RTP
    session object — SSRC, sequence space, jitter buffer, E-model
    accounting — survives untouched. Attempts that get no answer within
    ``ATTEMPT_TIMEOUT`` retry with jittered backoff until ``GIVEUP_AFTER``,
    then the call is torn down cleanly with a BYE.
    """

    #: Inbound RTP silence (seconds) that triggers a handover probe.
    RTP_SILENCE_TIMEOUT = 1.0
    #: How long the wireless neighbor set must stay empty before the
    #: neighbor-loss trigger fires (hysteresis window, seconds).
    NEIGHBOR_LOSS_WINDOW = 1.0
    #: Period of the trigger-probe loop (seconds).
    PROBE_INTERVAL = 0.25
    #: Base delay of the jittered migration retry backoff (seconds).
    RETRY_BASE = 0.25
    #: Backoff ceiling (seconds).
    MAX_BACKOFF = 2.0
    #: A migration attempt with no answer after this long is retried.
    ATTEMPT_TIMEOUT = 2.0
    #: Total time budget per call before the policy gives up and tears the
    #: call down cleanly instead of wedging (seconds).
    GIVEUP_AFTER = 6.0
    #: How long after a successful migration to watch for inbound media
    #: before giving up on the media_restored measurement (seconds).
    MEDIA_WATCH_WINDOW = 5.0

    def __init__(self, node: Node, stack: "SiphocStack") -> None:
        self.node = node
        self.stack = stack
        self.sim = node.sim
        self._probe_task = None
        self._observing = False
        self._active: dict[str, _HandoverAttempt] = {}
        self._migrated: set[str] = set()
        self._abandoned: set[str] = set()
        self._last_neighbor_at = self.sim.now
        self._rng = node_backoff_rng(node, salt=5)
        #: Seconds of inbound-media gap spanning each survived outage.
        self.media_gaps: list[float] = []

    @property
    def active_attempts(self) -> int:
        return len(self._active)

    def start(self) -> "HandoverPolicy":
        if self._probe_task is None:
            self._probe_task = self.sim.schedule_periodic(self.PROBE_INTERVAL, self._probe)
        if not self._observing:
            self.node.on_interface_change.append(self._on_interface_change)
            self._observing = True
        self._last_neighbor_at = self.sim.now
        for phone in self.stack.phones:
            self.adopt_phone(phone)
        return self

    def stop(self) -> None:
        if self._probe_task is not None:
            self._probe_task.stop()
            self._probe_task = None
        if self._observing:
            try:
                self.node.on_interface_change.remove(self._on_interface_change)
            except ValueError:
                pass
            self._observing = False
        self._active.clear()

    def adopt_phone(self, phone: "SoftPhone") -> None:
        """Advertise the phone's multihomed fallback contact, if any."""
        if self.node.wired_ip is not None:
            ua = phone.ua
            ua.alt_contact_uri = SipUri(
                user=ua.aor.user, host=self.node.wired_ip, port=ua.transport.port
            )

    # -- triggers -------------------------------------------------------------
    def _on_interface_change(self, name: str, up: bool) -> None:
        if name != "wireless":
            return
        if up:
            self._last_neighbor_at = self.sim.now
        else:
            self._trigger("interface_down")

    def _probe(self) -> None:
        now = self.sim.now
        medium = self.node.medium
        if medium is not None and self.node.interface_up("wireless"):
            neighbors = [n for n in medium.neighbors(self.node) if n.up]
            if neighbors:
                self._last_neighbor_at = now
            elif now - self._last_neighbor_at >= self.NEIGHBOR_LOSS_WINDOW:
                self._trigger("neighbor_loss")
        for phone, call in self._candidate_calls():
            session = phone.media_session(call.call_id)
            if session is None:
                continue
            last = session.last_rx_at
            if last is None:
                last = call.established_at
            if last is not None and now - last >= self.RTP_SILENCE_TIMEOUT:
                self._begin(phone, call, "rtp_silence")

    def _candidate_calls(self) -> list[tuple["SoftPhone", Call]]:
        out = []
        for phone in self.stack.phones:
            for call in phone.ua.active_calls:
                if (
                    call.state is CallState.ESTABLISHED
                    and call.call_id not in self._active
                    and call.call_id not in self._migrated
                    and call.call_id not in self._abandoned
                ):
                    out.append((phone, call))
        return out

    def _trigger(self, cause: str) -> None:
        for phone, call in self._candidate_calls():
            self._begin(phone, call, cause)

    # -- migration ------------------------------------------------------------
    def _begin(self, phone: "SoftPhone", call: Call, cause: str) -> None:
        now = self.sim.now
        wired = self.node.interfaces.get("wired")
        mode = (
            "make-before-break"
            if wired is not None and wired.up
            else "break-before-make"
        )
        self.node.stats.increment("handover.attempted")
        self._emit("handover.trigger", call_id=call.call_id, cause=cause, mode=mode)
        session = phone.media_session(call.call_id)
        last_rx = session.last_rx_at if session is not None else None
        if last_rx is None:
            last_rx = call.established_at if call.established_at is not None else now
        attempt = _HandoverAttempt(phone, call, cause, mode, now, last_rx)
        self._active[call.call_id] = attempt
        if self.node.wired_ip is None:
            self._abandon(attempt, "no_uplink")
            return
        if wired is not None and not wired.up:
            # Break-before-make: raise the second interface now.
            self.node.set_interface_up("wired", True)
        self._attempt(attempt)

    def _attempt(self, attempt: _HandoverAttempt) -> None:
        if attempt.call.call_id not in self._active:
            return
        if not attempt.call.is_active:
            self._active.pop(attempt.call.call_id, None)
            return
        if self.sim.now - attempt.started_at >= self.GIVEUP_AFTER:
            self._abandon(attempt, "deadline")
            return
        attempt.attempts += 1
        attempt.seq += 1
        attempt.resolved = False
        seq = attempt.seq
        self._emit(
            "handover.attempt",
            call_id=attempt.call.call_id,
            attempt=attempt.attempts,
        )

        def on_result(success: bool) -> None:
            if attempt.seq != seq or attempt.resolved:
                return  # a newer attempt superseded this one
            attempt.resolved = True
            if success:
                self._complete(attempt)
            else:
                self._retry(attempt)

        attempt.phone.migrate_call(attempt.call, on_result)
        self.sim.schedule(self.ATTEMPT_TIMEOUT, self._attempt_deadline, attempt, seq)

    def _attempt_deadline(self, attempt: _HandoverAttempt, seq: int) -> None:
        """A migration re-INVITE with no answer counts as a failed attempt.

        The SIP client transaction would wait Timer F (32 s) before
        reporting a timeout — far past any useful give-up deadline — so
        the policy enforces its own, and ignores the stale transaction
        callback when it eventually fires.
        """
        if attempt.seq != seq or attempt.resolved:
            return
        if attempt.call.call_id not in self._active:
            return
        attempt.resolved = True
        self._retry(attempt)

    def _retry(self, attempt: _HandoverAttempt) -> None:
        if attempt.call.call_id not in self._active:
            return
        if not attempt.call.is_active:
            self._active.pop(attempt.call.call_id, None)
            return
        if self.sim.now - attempt.started_at >= self.GIVEUP_AFTER:
            self._abandon(attempt, "deadline")
            return
        delay = backoff_with_jitter(
            self.RETRY_BASE, attempt.attempts, self.MAX_BACKOFF, self._rng
        )
        self.sim.schedule(delay, self._attempt, attempt)

    def _complete(self, attempt: _HandoverAttempt) -> None:
        now = self.sim.now
        latency = now - attempt.started_at
        attempt.completed_at = now
        self.node.stats.increment("handover.succeeded")
        self._migrated.add(attempt.call.call_id)
        self._active.pop(attempt.call.call_id, None)
        self._emit(
            "handover.complete",
            call_id=attempt.call.call_id,
            latency_ms=round(latency * 1000, 3),
            attempts=attempt.attempts,
            mode=attempt.mode,
            cause=attempt.cause,
        )
        self._watch_media(attempt)

    def _watch_media(self, attempt: _HandoverAttempt) -> None:
        """Measure the media gap: inbound silence spanning the outage."""
        session = attempt.phone.media_session(attempt.call.call_id)
        completed_at = attempt.completed_at
        if completed_at is None:
            return
        if (
            session is not None
            and session.last_rx_at is not None
            and session.last_rx_at > completed_at
        ):
            gap = session.last_rx_at - attempt.last_rx_before
            frame = getattr(session.codec, "frame_interval", 0.02) or 0.02
            packets_lost = max(0, int(round(gap / frame)) - 1)
            self.media_gaps.append(gap)
            self.node.stats.increment("handover.media_restored")
            self._emit(
                "handover.media_restored",
                call_id=attempt.call.call_id,
                gap_ms=round(gap * 1000, 3),
                packets_lost=packets_lost,
            )
            return
        if self.sim.now - completed_at >= self.MEDIA_WATCH_WINDOW:
            return
        if not attempt.call.is_active:
            return
        self.sim.schedule(self.PROBE_INTERVAL, self._watch_media, attempt)

    def _abandon(self, attempt: _HandoverAttempt, cause: str) -> None:
        self.node.stats.increment("handover.abandoned")
        self._abandoned.add(attempt.call.call_id)
        self._active.pop(attempt.call.call_id, None)
        self._emit(
            "handover.abandoned",
            call_id=attempt.call.call_id,
            cause=cause,
            attempts=attempt.attempts,
        )
        # Tear the call down cleanly instead of wedging: the BYE may well
        # time out over the dead path, and transaction Timer F then moves
        # the call to TERMINATED — media stops, records are finalized.
        if attempt.call.is_active:
            attempt.call.hangup()

    def _emit(self, kind: str, **detail) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(kind, self.node.ip or self.node.wired_ip or "", **detail)
