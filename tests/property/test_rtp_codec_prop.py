"""RtpSession reads and writes frames in place, as the object codec did.

The session packs each packet's header and RFC 2198 block headers itself
and reads received datagrams in place. This module keeps a copy of the
codec and session paths that built an ``RtpPacket`` per frame and a
``RedBlock`` per block, and checks the two against each other:

- the codec: every header and block layout the reference encodes, the
  library encodes to the same bytes and decodes back, and every datagram,
  well formed or not, decodes to the same fields or fails the same way;
- the sessions: a sender and a receiver run a random script (codecs,
  RED depths 0-4, talk-spurt markers, comfort noise, DTMF, sequence and
  timestamp wrap, loss, duplicates, reordering and malformed datagrams)
  next to a reference sender and receiver on a second simulator. Every
  datagram must have the same bytes, and the receivers must end with the
  same recoveries, jitter-buffer state, measurements, counters and trace.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.netsim import Node, Simulator, manet_ip
from repro.rtp import (
    CODECS_BY_NAME,
    COMFORT_NOISE_PAYLOAD_TYPE,
    RED_PAYLOAD_TYPE,
    TELEPHONE_EVENT_PAYLOAD_TYPE,
    AdaptivePlayoutPolicy,
    FixedPlayoutPolicy,
    RedBlock,
    RtpPacket,
    RtpSession,
    decode_red,
    decode_rtp,
    encode_red,
)
from repro.rtp.jitter import DUPLICATE, _seq_delta
from repro.rtp.packet import decode_dtmf_payload, make_voice_payload
from repro.trace import TraceCollector

# -- the reference: the object codec and the session paths built on it -----------

_HEADER = struct.Struct("!BBHII")
_TS = struct.Struct("!d")
_RED_WORD = struct.Struct("!I")


def reference_encode_rtp(packet: RtpPacket) -> bytes:
    first = 2 << 6
    second = (0x80 if packet.marker else 0) | (packet.payload_type & 0x7F)
    header = _HEADER.pack(
        first, second, packet.sequence & 0xFFFF, packet.timestamp & 0xFFFFFFFF, packet.ssrc
    )
    return header + packet.payload


def reference_decode_rtp(data: bytes) -> RtpPacket:
    if len(data) < 12:
        raise CodecError("RTP packet too short")
    first, second, sequence, timestamp, ssrc = _HEADER.unpack_from(data)
    if first >> 6 != 2:
        raise CodecError("unsupported RTP version")
    return RtpPacket(
        payload_type=second & 0x7F,
        marker=bool(second & 0x80),
        sequence=sequence,
        timestamp=timestamp,
        ssrc=ssrc,
        payload=data[12:],
    )


def reference_encode_red(blocks) -> bytes:
    if not blocks:
        raise CodecError("red payload needs at least a primary block")
    headers = []
    payloads = []
    for payload_type, ts_offset, payload in blocks[:-1]:
        if not 0 <= ts_offset <= (1 << 14) - 1:
            raise CodecError("red timestamp offset exceeds 14 bits")
        length = len(payload)
        if length > (1 << 10) - 1:
            raise CodecError("red block exceeds 10 bits")
        word = (1 << 31) | ((payload_type & 0x7F) << 24) | (ts_offset << 10) | length
        headers.append(_RED_WORD.pack(word))
        payloads.append(payload)
    primary_type, _, primary = blocks[-1]
    headers.append(bytes((primary_type & 0x7F,)))
    payloads.append(primary)
    return b"".join(headers) + b"".join(payloads)


def reference_decode_red(data: bytes) -> list[RedBlock]:
    secondaries = []
    offset = 0
    size = len(data)
    while True:
        if offset >= size:
            raise CodecError("red payload truncated in its block headers")
        if not data[offset] & 0x80:
            break
        if offset + 4 > size:
            raise CodecError("red payload truncated in a secondary header")
        (word,) = _RED_WORD.unpack_from(data, offset)
        secondaries.append(((word >> 24) & 0x7F, (word >> 10) & 0x3FFF, word & 0x3FF))
        offset += 4
    primary_type = data[offset] & 0x7F
    offset += 1
    blocks = []
    for payload_type, ts_offset, length in secondaries:
        end = offset + length
        if end > size:
            raise CodecError("red payload shorter than its block headers claim")
        blocks.append(RedBlock(payload_type, ts_offset, data[offset:end]))
        offset = end
    blocks.append(RedBlock(primary_type, 0, data[offset:]))
    return blocks


def reference_send_time(payload: bytes) -> float:
    if len(payload) < _TS.size:
        raise CodecError("payload too short for a send timestamp")
    return _TS.unpack_from(payload)[0]


class ReferenceSession(RtpSession):
    """An RtpSession whose send and receive paths build packet objects."""

    def _send_voice(self, now):
        payload = _TS.pack(now) + bytes(self.codec.frame_bytes - _TS.size)
        marker = self._marker_pending
        self._marker_pending = False
        payload_type = self.codec.payload_type
        if self.redundancy > 0:
            timestamp = self._timestamp
            blocks = [
                (payload_type, (timestamp - past_ts) & 0xFFFFFFFF, past_payload)
                for past_ts, past_payload in self._red_history
            ]
            blocks.append((payload_type, 0, payload))
            self._red_history.append((timestamp, payload))
            self._transmit(RED_PAYLOAD_TYPE, marker, reference_encode_red(blocks))
        else:
            self._transmit(payload_type, marker, payload)

    def _transmit(self, payload_type, marker, payload):
        packet = RtpPacket(
            payload_type=payload_type,
            sequence=self._sequence,
            timestamp=self._timestamp,
            ssrc=self.ssrc,
            payload=payload,
            marker=marker,
        )
        self._sequence = (self._sequence + 1) & 0xFFFF
        self.packets_sent += 1
        self._socket.send(self.remote[0], self.remote[1], reference_encode_rtp(packet))

    def _on_datagram(self, data, src_ip, sport):
        if self.closed:
            return
        try:
            packet = reference_decode_rtp(data)
        except CodecError:
            self.node.stats.increment("rtp.bad_packets")
            return
        now = self.sim.now
        if self.last_rx_at is not None:
            gap = now - self.last_rx_at
            if gap > self.max_rx_gap:
                self.max_rx_gap = gap
        self.last_rx_at = now
        if packet.payload_type == RED_PAYLOAD_TYPE:
            self._reference_red(packet, now)
        elif packet.payload_type == COMFORT_NOISE_PAYLOAD_TYPE:
            self._note_sequence(packet.sequence)
            if self.jitter_buffer.classify(packet.sequence, now, jitter=self._jitter) != DUPLICATE:
                self.cn_received += 1
                self.node.stats.increment("rtp.cn_frames")
        elif packet.payload_type == TELEPHONE_EVENT_PAYLOAD_TYPE:
            self._reference_dtmf(packet, now)
        else:
            self._reference_voice(packet, packet.payload, now)

    def _reference_red(self, packet, now):
        try:
            blocks = reference_decode_red(packet.payload)
        except CodecError:
            self.node.stats.increment("rtp.bad_packets")
            return
        self._reference_voice(packet, blocks[-1].payload, now)
        increment = self.codec.timestamp_increment
        for _, ts_offset, _ in blocks[:-1]:
            if increment <= 0 or ts_offset <= 0:
                continue
            steps = round(ts_offset / increment)
            sequence = (packet.sequence - steps) & 0xFFFF
            if self.jitter_buffer.on_recovered(sequence, now):
                self.node.stats.increment("rtp.recovered")
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.emit("rtp.recovered", self.node.ip, port=self.local_port, seq=sequence)

    def _reference_voice(self, packet, payload, now):
        self._note_sequence(packet.sequence)
        delay_before = self.jitter_buffer.playout_delay
        outcome = self.jitter_buffer.classify(
            packet.sequence, now, jitter=self._jitter, marker=packet.marker
        )
        if self.jitter_buffer.playout_delay != delay_before:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "rtp.retarget",
                    self.node.ip,
                    port=self.local_port,
                    playout_delay=self.jitter_buffer.playout_delay,
                )
        if outcome == DUPLICATE:
            return
        try:
            send_time = reference_send_time(payload)
        except CodecError:
            send_time = now
        self.delays.append(max(0.0, now - send_time))
        transit = now - packet.timestamp / self.codec.sample_rate
        if self._last_transit is not None:
            deviation = abs(transit - self._last_transit)
            self._jitter += (deviation - self._jitter) / 16.0
        self._last_transit = transit

    def _note_sequence(self, sequence):
        if self._ext_high is None:
            self._first_ext = self._ext_high = sequence
            return
        ext = self._ext_high + _seq_delta(sequence, self._ext_high & 0xFFFF)
        if ext > self._ext_high:
            self._ext_high = ext
        if ext < self._first_ext:
            self._first_ext = ext

    def _reference_dtmf(self, packet, now):
        self._note_sequence(packet.sequence)
        if self.jitter_buffer.classify(packet.sequence, now, jitter=self._jitter) == DUPLICATE:
            return
        try:
            digit, end, _ = decode_dtmf_payload(packet.payload)
        except CodecError:
            self.node.stats.increment("rtp.bad_packets")
            return
        if end:
            self.dtmf_received.append(digit)
            self.node.stats.increment("rtp.dtmf_events")
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit("rtp.dtmf", self.node.ip, port=self.local_port, digit=digit)


# -- the codec ----------------------------------------------------------------------

payload_types = st.integers(min_value=0, max_value=127)
blocks = st.lists(
    st.tuples(
        payload_types,
        st.integers(min_value=0, max_value=(1 << 14) - 1),
        st.binary(max_size=40) | st.binary(min_size=1020, max_size=1023),
    ),
    max_size=4,
).flatmap(
    lambda secondaries: st.tuples(payload_types, st.binary(max_size=40)).map(
        lambda primary: [*secondaries, (primary[0], 0, primary[1])]
    )
)
headers = st.tuples(
    payload_types,
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.booleans(),
)


def outcome(decode, data):
    try:
        return decode(data)
    except CodecError:
        return CodecError


class TestCodec:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(headers, blocks)
    def test_encodes_as_the_reference(self, header, red_blocks):
        payload_type, sequence, timestamp, ssrc, marker = header
        red = encode_red(red_blocks)
        assert red == reference_encode_red(red_blocks)
        packet = RtpPacket(payload_type, sequence, timestamp, ssrc, red, marker)
        wire = packet.encode()
        assert wire == reference_encode_rtp(packet)
        assert decode_rtp(wire) == packet
        assert decode_red(red) == red_blocks

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(blocks, st.integers(min_value=0, max_value=1 << 12), st.binary(max_size=60))
    def test_decodes_any_datagram_as_the_reference(self, red_blocks, cut, noise):
        """Cut red payloads, noise and RTP headers over them: the same fields or CodecError."""
        red = encode_red(red_blocks)
        header = _HEADER.pack(0x80, RED_PAYLOAD_TYPE, 1, 2, 3)
        for data in (red, red[: cut % (len(red) + 1)], noise, b"\x80" + noise):
            assert outcome(decode_red, data) == outcome(reference_decode_red, data)
            for wire in (header + data, (header + data)[: cut % 13], noise):
                assert outcome(decode_rtp, wire) == outcome(reference_decode_rtp, wire)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.integers(min_value=1 << 14, max_value=1 << 20) | st.integers(max_value=-1),
        st.integers(min_value=1 << 10, max_value=1 << 11),
    )
    def test_field_limits_raise(self, offset, length):
        primary = (0, 0, b"p")
        for bad in ([(0, offset, b"s"), primary], [(0, 0, bytes(length)), primary], []):
            assert outcome(encode_red, bad) is CodecError
            assert outcome(reference_encode_red, bad) is CodecError


# -- the sessions ---------------------------------------------------------------------

PORT = 16384
FATES = ("deliver", "deliver", "deliver", "drop", "duplicate", "hold")
#: Ways to spoil the datagram a step has just sent, before it is delivered.
SPOILS = (
    "short_header",  # cut inside the 12-byte header
    "bad_version",  # RTP version 1 or 3
    "cut_payload",  # cut anywhere in the payload (block headers, blocks, stamp)
    "long_block",  # a secondary's length field runs past the payload
    "far_sequence",  # the sequence moved half its range away
    "random",  # the payload replaced by the drawn bytes
)

voice = st.tuples(st.just("voice"), st.sampled_from(FATES))
silence = st.tuples(st.just("silence"), st.booleans(), st.sampled_from(FATES))
spurt = st.tuples(st.just("spurt"))
dtmf = st.tuples(st.just("dtmf"), st.sampled_from("0123456789*#ABCD"), st.sampled_from(FATES))
pause = st.tuples(st.just("pause"), st.sampled_from((0.005, 0.03, 0.15, 0.4)))
release = st.tuples(st.just("release"))
spoil = st.tuples(
    st.just("spoil"), st.sampled_from(SPOILS), st.integers(min_value=0, max_value=4000),
    st.binary(max_size=24),
)
sessions = st.fixed_dictionaries(
    {
        "codec": st.sampled_from(("PCMU", "PCMA", "G729")),
        "redundancy": st.integers(min_value=0, max_value=4),
        "adaptive": st.booleans(),
        "sequence": st.integers(min_value=0xFFF0, max_value=0xFFFF) | st.integers(0, 0xFFFF),
        "timestamp": st.integers(min_value=0xFFFFF000, max_value=0xFFFFFFFF)
        | st.integers(0, 0xFFFFFFFF),
        "script": st.lists(
            st.one_of(voice, voice, voice, silence, spurt, dtmf, pause, release, spoil),
            min_size=1,
            max_size=50,
        ),
    }
)


class _Recorder:
    """The sender's socket: keeps every datagram for the script to deliver."""

    def __init__(self) -> None:
        self.sent: list[bytes] = []

    def send(self, dst_ip, dport, data):
        self.sent.append(data)

    def close(self):
        pass


class _Side:
    """A sender and a receiver of one session class on their own simulator."""

    def __init__(self, cls, case) -> None:
        self.sim = Simulator(seed=9)
        self.trace = TraceCollector().attach(self.sim)
        alice, bob = Node(self.sim, 0, manet_ip(0)), Node(self.sim, 1, manet_ip(1))
        codec = CODECS_BY_NAME[case["codec"]]

        def session(node, peer):
            policy = AdaptivePlayoutPolicy() if case["adaptive"] else FixedPlayoutPolicy()
            return cls(
                node, PORT, remote=(peer.ip, PORT), codec=codec,
                redundancy=case["redundancy"], jitter_policy=policy,
            )

        self.sender, self.receiver = session(alice, bob), session(bob, alice)
        self.sender.ssrc = 0x1234
        self.sender._sequence = case["sequence"]
        self.sender._timestamp = case["timestamp"]
        self.socket = self.sender._socket = _Recorder()

    def advance(self, seconds):
        self.sim.run(self.sim.now + seconds)

    def send(self, action):
        """Run one sender step; returns the datagrams it sent."""
        sender = self.sender
        before = len(self.socket.sent)
        kind = action[0]
        if kind == "voice":
            sender._talking = True
            sender._send_frame()
        elif kind == "silence":
            sender._talking = False
            sender._cn_due = action[1]
            sender._send_frame()
        elif kind == "spurt":  # what a talk-spurt start does to the sender
            sender._marker_pending = True
            sender._red_history.clear()
        elif kind == "dtmf":
            sender._send_dtmf_event(action[1], 0.08)
        return self.socket.sent[before:]

    def deliver(self, data):
        self.receiver._on_datagram(data, self.sender.node.ip, PORT)

    def observed(self):
        receiver = self.receiver
        buffer = receiver.jitter_buffer
        stats = receiver.node.stats
        return (
            buffer.stats,
            buffer.playout_delay,
            buffer._anchor_time,
            buffer._anchor_ext,
            buffer._ext_high,
            sorted(buffer._seen),
            receiver.delays,
            receiver._jitter,
            receiver._last_transit,
            receiver.cn_received,
            receiver.dtmf_received,
            receiver._first_ext,
            receiver._ext_high,
            receiver.last_rx_at,
            receiver.max_rx_gap,
            [stats.count(name) for name in (
                "rtp.bad_packets", "rtp.recovered", "rtp.cn_frames", "rtp.dtmf_events",
            )],
            [(event.t, event.kind, event.node, event.detail) for event in self.trace],
        )


def spoiled(data, how, amount, noise):
    if how == "short_header":
        return data[: amount % 12]
    if how == "bad_version":
        return bytes([(data[0] & 0x3F) | (0x40 if amount % 2 else 0xC0)]) + data[1:]
    if how == "cut_payload":
        return data[: 12 + amount % max(1, len(data) - 12)]
    if how == "long_block":
        if data[1] & 0x7F != RED_PAYLOAD_TYPE or not data[12] & 0x80:
            return data[:-1]  # no secondary to spoil: cut the last byte instead
        raw = bytearray(data)
        raw[14] |= 0x03  # the two high bits of the first secondary's length,
        raw[15] = amount & 0xFF  # and its low byte: 768 to 1023 bytes
        return bytes(raw)
    if how == "far_sequence":
        (sequence,) = struct.unpack_from("!H", data, 2)
        return data[:2] + struct.pack("!H", sequence ^ 0x8000) + data[4:]
    return data[:12] + noise


class TestSessions:
    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(sessions)
    def test_session_matches_the_reference(self, case):
        new, old = _Side(RtpSession, case), _Side(ReferenceSession, case)
        interval = CODECS_BY_NAME[case["codec"]].frame_interval
        held: list[bytes] = []
        last: list[bytes] = []
        for action in case["script"]:
            kind = action[0]
            if kind == "pause":
                new.advance(action[1])
                old.advance(action[1])
                continue
            if kind == "release":  # held datagrams arrive, newest first
                deliveries, held = held[::-1], []
            elif kind == "spoil":
                deliveries = [spoiled(data, *action[1:]) for data in last]
            else:
                if kind in ("voice", "silence"):
                    new.advance(interval)
                    old.advance(interval)
                sent = new.send(action)
                assert sent == old.send(action)
                last = sent
                fate = action[-1] if sent else "drop"
                if fate == "hold":
                    held.extend(sent)
                deliveries = {"deliver": sent, "duplicate": sent * 2}.get(fate, [])
            for data in deliveries:
                new.deliver(data)
                old.deliver(data)
        assert new.sender.packets_sent == old.sender.packets_sent
        assert new.observed() == old.observed()

    def test_wire_is_the_object_codec(self):
        """A RED-2 frame is an ``RtpPacket`` over ``encode_red``, byte for byte."""
        case = {"codec": "PCMU", "redundancy": 2, "adaptive": True,
                "sequence": 0xFFFF, "timestamp": 0xFFFFFF00}
        side = _Side(RtpSession, case)
        frames = []
        for _ in range(3):
            side.advance(0.02)
            frames.append((side.sim.now, side.send(("voice",))[0]))
        (t1, _), (t2, _), (t3, third) = frames
        blocks = [(0, 320, make_voice_payload(160, t1)), (0, 160, make_voice_payload(160, t2)),
                  (0, 0, make_voice_payload(160, t3))]
        # Both counters wrapped: sequence 0xFFFF, 0, 1; timestamp past 2**32.
        expected = RtpPacket(RED_PAYLOAD_TYPE, 1, 0x40, 0x1234, encode_red(blocks)).encode()
        assert third == expected
        assert third == reference_encode_rtp(
            RtpPacket(RED_PAYLOAD_TYPE, 1, 0x40, 0x1234, reference_encode_red(blocks))
        )
