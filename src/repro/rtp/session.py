"""RTP sessions: codec-paced senders and measuring receivers.

An :class:`RtpSession` binds one local UDP port, streams codec frames to
the negotiated remote endpoint and measures the inbound stream (delay from
embedded send timestamps, RFC 3550 interarrival jitter, losses, and
jitter-buffer late drops), producing a :class:`CallQuality` score.

Beyond plain voice the session speaks three media-plane extensions (§5j):

* **RFC 2198 redundancy** (``redundancy=N``): every voice packet carries
  the previous N frames as secondary encodings under the "red" payload
  type; the receiver rebuilds lost primaries from later arrivals, counted
  separately from network receipts.
* **Silence suppression** (``vad=True``): a two-state talk-spurt model
  driven by a private seeded RNG gates the sender. A spurt end emits one
  RFC 3389 comfort-noise frame; a spurt start sets the RTP marker bit so
  the receiver's jitter buffer re-anchors its playout schedule.
* **RFC 2833 telephone events**: :meth:`RtpSession.send_dtmf` interleaves
  DTMF digit packets with the voice stream.

All session randomness (initial sequence number, talk-spurt durations)
comes from private integer-seeded RNGs pinned by (scenario seed, node id,
port) — never from the shared ``sim.rng`` — so constructing a media
session does not perturb the global seeded stream.
"""

from __future__ import annotations

import random
from collections import deque

from repro.errors import CodecError, ConfigError
from repro.netsim.node import Node
from repro.rtp.codecs import (
    COMFORT_NOISE_PAYLOAD_TYPE,
    Codec,
    G711,
    RED_PAYLOAD_TYPE,
    TELEPHONE_EVENT_PAYLOAD_TYPE,
)
from repro.rtp.jitter import DUPLICATE, JitterBuffer, JitterPolicy
from repro.rtp.packet import (
    DTMF_EVENTS,
    RED_MAX_BLOCK_BYTES,
    RTP_HEADER_BYTES,
    decode_dtmf_payload,
    extract_send_time,
    make_comfort_noise_payload,
    make_dtmf_payload,
    pack_header,
    read_header,
    red_headers,
    voice_frame,
    walk_red,
)
from repro.rtp.quality import CallQuality, score_stream

#: Most secondary encodings one packet may carry (bandwidth sanity bound).
MAX_REDUNDANCY = 4


def check_redundancy(redundancy: int, codec: Codec) -> None:
    """Reject an RFC 2198 depth the sender could not encode.

    Raises :class:`ConfigError` for a depth outside ``0..MAX_REDUNDANCY``,
    or for redundancy over a codec whose frames overflow a secondary
    block's 10-bit length field (H.263's 1300-byte frames, for one).
    """
    if not 0 <= redundancy <= MAX_REDUNDANCY:
        raise ConfigError(f"redundancy must be 0..{MAX_REDUNDANCY}, got {redundancy}")
    if redundancy > 0 and codec.frame_bytes > RED_MAX_BLOCK_BYTES:
        raise ConfigError(
            f"{codec.name} frames of {codec.frame_bytes} bytes exceed the "
            f"{RED_MAX_BLOCK_BYTES}-byte RFC 2198 block limit; use redundancy=0"
        )


#: Talk-spurt on/off model: exponential holding times, telephony-ish means.
_TALK_SPURT_MEAN = 1.0
_SILENCE_MEAN = 1.5


def _session_rng(node: Node, local_port: int, salt: int) -> random.Random:
    """A private RNG pinned by (scenario seed, node id, port, salt).

    Same rationale as ``node_backoff_rng``: drawing from the shared
    ``sim.rng`` would make media-session construction order perturb every
    later draw in the scenario. Integer arithmetic only, so the seed is
    stable across interpreter processes.
    """
    seed = ((node.sim.seed * 1_000_003 + node.node_id) * 131_071 + local_port) * 8_191 + salt
    return random.Random(seed)


class RtpSession:
    """One bidirectional voice stream endpoint."""

    def __init__(
        self,
        node: Node,
        local_port: int,
        remote: tuple[str, int] | None = None,
        codec: Codec = G711,
        playout_delay: float = 0.06,
        jitter_policy: JitterPolicy | None = None,
        redundancy: int = 0,
        vad: bool = False,
    ) -> None:
        check_redundancy(redundancy, codec)
        self.node = node
        self.sim = node.sim
        self.codec = codec
        # Read once: the codec is fixed for the session's life.
        self._ts_increment = codec.timestamp_increment
        self._sample_rate = codec.sample_rate
        self._payload_type = codec.payload_type
        self._pack_voice = voice_frame(codec.frame_bytes).pack
        self.local_port = local_port
        self.remote = remote
        self.redundancy = redundancy
        self.vad = vad
        self.ssrc = next(node.sim.ssrcs)
        self._socket = node.bind(local_port, self._on_datagram)
        self._send_task = None
        self._sequence = _session_rng(node, local_port, 0).randrange(0, 0x8000)
        self._timestamp = 0
        self.packets_sent = 0
        # Sender-side talk-spurt / redundancy state.
        self._spurt_rng = _session_rng(node, local_port, 1)
        self._talking = True
        self._phase_until = 0.0
        self._marker_pending = True
        self._cn_due = False
        self._red_history: deque[tuple[int, bytes]] = deque(maxlen=max(1, redundancy))
        # Receiver-side measurement state.
        self.jitter_buffer = JitterBuffer(
            frame_interval=codec.frame_interval,
            playout_delay=playout_delay,
            policy=jitter_policy,
        )
        self.delays: list[float] = []
        self.dtmf_received: list[str] = []
        self.cn_received = 0
        self._jitter = 0.0
        self._last_transit: float | None = None
        self._first_ext: int | None = None
        self._ext_high: int | None = None
        # Inbound-silence bookkeeping for the §5k handover trigger: when the
        # last datagram arrived, and the widest inter-arrival gap seen.
        self.last_rx_at: float | None = None
        self.max_rx_gap = 0.0
        self.closed = False
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "rtp.session_open",
                node.ip,
                port=local_port,
                codec=codec.name,
                policy=self.jitter_buffer.policy.name,  # type: ignore[union-attr]
                redundancy=redundancy,
                vad=vad,
            )

    # -- sender ----------------------------------------------------------------
    def start_sending(self, remote: tuple[str, int] | None = None) -> None:
        if remote is not None:
            self.remote = remote
        if self.remote is None:
            raise CodecError("RTP session has no remote endpoint to stream to")
        if self._send_task is None:
            if self.vad:
                self._phase_until = self.sim.now + self._spurt_rng.expovariate(
                    1.0 / _TALK_SPURT_MEAN
                )
            self._send_task = self.sim.schedule_periodic(
                self.codec.frame_interval, self._send_frame
            )

    def stop_sending(self) -> None:
        if self._send_task is not None:
            self._send_task.stop()
            self._send_task = None

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.stop_sending()
            self._socket.close()
            tracer = self.sim.tracer
            if tracer is not None:
                stats = self.jitter_buffer.stats
                tracer.emit(
                    "rtp.session_close",
                    self.node.ip,
                    port=self.local_port,
                    sent=self.packets_sent,
                    received=stats.unique,
                    played=stats.played,
                    recovered=stats.recovered,
                )

    def send_dtmf(self, digits: str, duration: float = 0.08) -> None:
        """Send DTMF ``digits`` as RFC 2833 telephone events, one per ``duration``."""
        if self.remote is None:
            raise CodecError("RTP session has no remote endpoint for DTMF")
        for digit in digits:
            if digit not in DTMF_EVENTS:
                raise CodecError(f"not a DTMF digit: {digit!r}")
        for index, digit in enumerate(digits):
            self.sim.schedule(index * duration, self._send_dtmf_event, digit, duration)

    def _send_dtmf_event(self, digit: str, duration: float) -> None:
        if self.closed or self.remote is None:
            return
        units = int(duration * self.codec.sample_rate)
        self._transmit(
            TELEPHONE_EVENT_PAYLOAD_TYPE, True, make_dtmf_payload(digit, units, end=True)
        )

    def _send_frame(self) -> None:
        assert self.remote is not None
        now = self.sim.now
        if self.vad:
            self._update_spurt(now)
        if self._talking:
            self._send_voice(now)
        elif self._cn_due:
            self._cn_due = False
            self._transmit(COMFORT_NOISE_PAYLOAD_TYPE, False, make_comfort_noise_payload())
        # The RTP timestamp tracks the sampling clock, so it advances every
        # frame interval even across suppressed (silent) frames.
        self._timestamp = (self._timestamp + self._ts_increment) & 0xFFFFFFFF

    def _update_spurt(self, now: float) -> None:
        while now >= self._phase_until:
            start = self._phase_until
            self._talking = not self._talking
            mean = _TALK_SPURT_MEAN if self._talking else _SILENCE_MEAN
            self._phase_until = start + self._spurt_rng.expovariate(1.0 / mean)
            if self._talking:
                self._marker_pending = True
                self._red_history.clear()
            else:
                self._cn_due = True
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "rtp.spurt", self.node.ip, port=self.local_port, talking=self._talking
                )

    def _send_voice(self, now: float) -> None:
        payload = self._pack_voice(now)
        marker = self._marker_pending
        self._marker_pending = False
        payload_type = self._payload_type
        if self.redundancy > 0:
            timestamp = self._timestamp
            blocks = [
                (payload_type, (timestamp - past_ts) & 0xFFFFFFFF, past_payload)
                for past_ts, past_payload in self._red_history
            ]
            blocks.append((payload_type, 0, payload))
            self._red_history.append((timestamp, payload))
            self._transmit(
                RED_PAYLOAD_TYPE, marker, red_headers(blocks), *[block[2] for block in blocks]
            )
        else:
            self._transmit(payload_type, marker, payload)

    def _transmit(self, payload_type: int, marker: bool, *parts: bytes) -> None:
        """Send one packet: the RTP header and ``parts``, joined once."""
        assert self.remote is not None
        header = pack_header(payload_type, self._sequence, self._timestamp, self.ssrc, marker)
        self._sequence = (self._sequence + 1) & 0xFFFF
        self.packets_sent += 1
        self._socket.send(self.remote[0], self.remote[1], b"".join((header, *parts)))

    # -- receiver -----------------------------------------------------------------
    #
    # A datagram is read in place: the header once, then, by payload type,
    # the RFC 2198 block headers, the send stamp or the telephone event at
    # their offsets in ``data``. No payload is copied.

    def _on_datagram(self, data: bytes, src_ip: str, sport: int) -> None:
        if self.closed:
            return
        try:
            payload_type, marker, sequence, timestamp, _ = read_header(data)
        except CodecError:
            self.node.stats.increment("rtp.bad_packets")
            return
        now = self.sim.now
        if self.last_rx_at is not None:
            gap = now - self.last_rx_at
            if gap > self.max_rx_gap:
                self.max_rx_gap = gap
        self.last_rx_at = now
        if payload_type == RED_PAYLOAD_TYPE:
            self._receive_red(data, sequence, timestamp, marker, now)
        elif payload_type == COMFORT_NOISE_PAYLOAD_TYPE:
            self._receive_cn(sequence, now)
        elif payload_type == TELEPHONE_EVENT_PAYLOAD_TYPE:
            self._receive_dtmf(data, sequence, now)
        else:
            self._receive_voice(data, RTP_HEADER_BYTES, sequence, timestamp, marker, now)

    def _receive_red(
        self, data: bytes, sequence: int, timestamp: int, marker: bool, now: float
    ) -> None:
        try:
            secondaries, _, primary_at = walk_red(data, RTP_HEADER_BYTES)
        except CodecError:
            self.node.stats.increment("rtp.bad_packets")
            return
        self._receive_voice(data, primary_at, sequence, timestamp, marker, now)
        increment = self._ts_increment
        for _, ts_offset, _ in secondaries:
            if increment <= 0 or ts_offset <= 0:
                continue
            steps = round(ts_offset / increment)
            recovered = (sequence - steps) & 0xFFFF
            if self.jitter_buffer.on_recovered(recovered, now):
                self.node.stats.increment("rtp.recovered")
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.emit(
                        "rtp.recovered", self.node.ip, port=self.local_port, seq=recovered
                    )

    def _receive_voice(
        self,
        data: bytes,
        payload_at: int,
        sequence: int,
        timestamp: int,
        marker: bool,
        now: float,
    ) -> None:
        """A voice frame whose payload starts at ``data[payload_at]``."""
        self._note_sequence(sequence)
        jitter_buffer = self.jitter_buffer
        delay_before = jitter_buffer.playout_delay
        outcome = jitter_buffer.classify(sequence, now, self._jitter, marker)
        if jitter_buffer.playout_delay != delay_before:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "rtp.retarget",
                    self.node.ip,
                    port=self.local_port,
                    playout_delay=jitter_buffer.playout_delay,
                )
        if outcome == DUPLICATE:
            return
        try:
            send_time = extract_send_time(data, payload_at)
        except CodecError:
            send_time = now
        delay = now - send_time
        self.delays.append(delay if delay > 0.0 else 0.0)
        # RFC 3550 interarrival jitter estimate (unique receipts only).
        transit = now - timestamp / self._sample_rate
        if self._last_transit is not None:
            deviation = abs(transit - self._last_transit)
            self._jitter += (deviation - self._jitter) / 16.0
        self._last_transit = transit

    def _receive_cn(self, sequence: int, now: float) -> None:
        self._note_sequence(sequence)
        if self.jitter_buffer.classify(sequence, now, jitter=self._jitter) != DUPLICATE:
            self.cn_received += 1
            self.node.stats.increment("rtp.cn_frames")

    def _receive_dtmf(self, data: bytes, sequence: int, now: float) -> None:
        self._note_sequence(sequence)
        if self.jitter_buffer.classify(sequence, now, jitter=self._jitter) == DUPLICATE:
            return
        try:
            digit, end, _duration = decode_dtmf_payload(data, RTP_HEADER_BYTES)
        except CodecError:
            self.node.stats.increment("rtp.bad_packets")
            return
        if end:
            self.dtmf_received.append(digit)
            self.node.stats.increment("rtp.dtmf_events")
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit("rtp.dtmf", self.node.ip, port=self.local_port, digit=digit)

    def _note_sequence(self, sequence: int) -> None:
        """Track the received sequence range in extended (unwrapped) form."""
        high = self._ext_high
        if high is None:
            self._first_ext = self._ext_high = sequence
            return
        delta = (sequence - high) & 0xFFFF  # jitter._seq_delta, inlined
        ext = high + (delta - 0x10000 if delta >= 0x8000 else delta)
        if ext > high:
            self._ext_high = ext
        assert self._first_ext is not None
        if ext < self._first_ext:
            self._first_ext = ext

    # -- measurement ---------------------------------------------------------------
    @property
    def packets_received(self) -> int:
        """Distinct frames received from the network (duplicates excluded)."""
        return self.jitter_buffer.stats.unique

    @property
    def packets_expected(self) -> int:
        if self._first_ext is None or self._ext_high is None:
            return 0
        return self._ext_high - self._first_ext + 1

    @property
    def packets_recovered(self) -> int:
        """Lost primaries rebuilt from RFC 2198 redundancy."""
        return self.jitter_buffer.stats.recovered

    @property
    def interarrival_jitter(self) -> float:
        return self._jitter

    def quality(self, expected_override: int | None = None) -> CallQuality:
        """Score the received stream with the E-model."""
        expected = expected_override if expected_override is not None else self.packets_expected
        return score_stream(
            codec=self.codec,
            packets_expected=expected,
            packets_received=self.packets_received,
            packets_played=self.jitter_buffer.stats.played,
            delays=self.delays,
            jitter=self._jitter,
            playout_delay=self.jitter_buffer.playout_delay,
            packets_recovered=self.packets_recovered,
        )


def _seq_greater(a: int, b: int) -> bool:
    return ((a - b) & 0xFFFF) < 0x8000 and a != b
