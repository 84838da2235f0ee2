"""Tests for the media-plane extensions: RFC 2198 redundancy, silence
suppression with comfort noise, RFC 2833 telephone events, and the session
accounting regressions behind them (§5j)."""

import pytest

from repro.errors import CodecError, ConfigError
from repro.netsim import Node, Simulator, Stats, WirelessMedium, manet_ip
from repro.rtp import (
    G711,
    H263,
    RedBlock,
    RtpPacket,
    RtpSession,
    decode_dtmf_payload,
    decode_red,
    encode_red,
    make_comfort_noise_payload,
    make_dtmf_payload,
    make_voice_payload,
)
from tests.conftest import make_chain


def build_pair(sim, medium, **session_kwargs):
    a, b = make_chain(sim, medium, 2, static_routes=True)
    tx = RtpSession(a, 16384, remote=(b.ip, 16384), **session_kwargs)
    rx = RtpSession(b, 16384, remote=(a.ip, 16384), **session_kwargs)
    return tx, rx


class TestRedCodec:
    def test_round_trip_with_secondaries(self):
        cases = [
            [
                RedBlock(payload_type=0, timestamp_offset=320, payload=b"oldest"),
                RedBlock(payload_type=0, timestamp_offset=160, payload=b"older"),
                RedBlock(payload_type=0, timestamp_offset=0, payload=b"primary frame"),
            ],
            # The field limits: a 1023-byte secondary (10-bit length) at
            # offset 16383 (14 bits), ahead of an empty primary.
            [RedBlock(127, (1 << 14) - 1, b"s" * 1023), RedBlock(0, 0, b"")],
        ]
        for blocks in cases:
            assert decode_red(encode_red(blocks)) == blocks
        # Senders may pass bare (payload_type, offset, payload) tuples.
        plain = [(0, 160, b"older"), (0, 0, b"primary")]
        assert decode_red(encode_red(plain)) == plain

    def test_primary_only_round_trip(self):
        for payload in (b"x" * 20, b""):
            blocks = [RedBlock(payload_type=18, timestamp_offset=0, payload=payload)]
            assert decode_red(encode_red(blocks)) == blocks

    def test_empty_block_list_rejected(self):
        with pytest.raises(CodecError):
            encode_red([])

    def test_oversized_fields_rejected(self):
        primary = RedBlock(0, 0, b"p")
        with pytest.raises(CodecError):
            encode_red([RedBlock(0, 1 << 14, b"s"), primary])
        with pytest.raises(CodecError):
            encode_red([RedBlock(0, 0, b"s" * 1024), primary])

    @pytest.mark.parametrize(
        "bad",
        [
            b"",  # no headers at all
            b"\x80\x00",  # truncated secondary header
            bytes([0x80, 0, 1, 200, 0]),  # claims 200 payload bytes, has none
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(CodecError):
            decode_red(bad)


class TestAuxPayloadCodecs:
    def test_comfort_noise_level(self):
        assert make_comfort_noise_payload(70) == bytes([70])

    def test_dtmf_round_trip(self):
        payload = make_dtmf_payload("#", 640, end=True)
        assert decode_dtmf_payload(payload) == ("#", True, 640)

    def test_dtmf_rejects_non_digits(self):
        with pytest.raises(CodecError):
            make_dtmf_payload("x", 640)

    def test_dtmf_unknown_event_code_rejected(self):
        with pytest.raises(CodecError):
            decode_dtmf_payload(bytes([42, 0x80, 0, 100]))


class TestSessionRng:
    def test_construction_leaves_shared_rng_untouched(self, sim, medium):
        """Regression: the initial sequence number used to come from the
        shared ``sim.rng``, so building a media session perturbed every
        later draw in the scenario."""
        nodes = make_chain(sim, medium, 2, static_routes=True)
        state = sim.rng.getstate()
        RtpSession(nodes[0], 16384, remote=(nodes[1].ip, 16384), redundancy=2, vad=True)
        assert sim.rng.getstate() == state

    def test_initial_sequence_is_deterministic_per_endpoint(self):
        def sequence_of(port):
            sim = Simulator(seed=1234)
            medium = WirelessMedium(sim, stats=Stats(), tx_range=150.0)
            nodes = make_chain(sim, medium, 2, static_routes=True)
            return RtpSession(nodes[0], port, remote=(nodes[1].ip, port))._sequence

        assert sequence_of(16384) == sequence_of(16384)
        assert sequence_of(16384) != sequence_of(16500)

    def test_redundancy_depth_validated(self, sim, medium):
        nodes = make_chain(sim, medium, 2, static_routes=True)
        with pytest.raises(ConfigError):
            RtpSession(nodes[0], 16384, redundancy=99)
        # H.263's 1300-byte frames overflow a secondary's 10-bit length.
        with pytest.raises(ConfigError):
            RtpSession(nodes[0], 16386, codec=H263, redundancy=1)


class TestDuplicateAccounting:
    def test_duplicated_datagram_counts_once(self, sim, medium):
        """Regression: ``packets_received`` used to count raw datagrams, so
        duplicated packets understated the loss the E-model saw."""
        tx, rx = build_pair(sim, medium)
        packet = RtpPacket(
            payload_type=0,
            sequence=100,
            timestamp=0,
            ssrc=tx.ssrc,
            payload=make_voice_payload(160, 0.0),
        )
        data = packet.encode()
        rx._on_datagram(data, tx.node.ip, 16384)
        rx._on_datagram(data, tx.node.ip, 16384)
        assert rx.packets_received == 1
        assert rx.jitter_buffer.stats.duplicates == 1
        assert rx.quality(expected_override=1).network_loss_ratio == 0.0

    def test_expected_spans_wraparound(self, sim, medium):
        _, rx = build_pair(sim, medium)
        for sequence in (0xFFFE, 0xFFFF, 0x0000, 0x0001):
            rx._note_sequence(sequence)
        assert rx.packets_expected == 4

    def test_expected_counts_reordered_first_packet(self, sim, medium):
        _, rx = build_pair(sim, medium)
        rx._note_sequence(0x0001)
        rx._note_sequence(0xFFFF)  # the true first frame, arriving second
        assert rx.packets_expected == 3


class TestRedRecovery:
    def test_lost_primaries_rebuilt_from_redundancy(self, sim):
        lossy = WirelessMedium(sim, tx_range=150.0, loss_rate=0.25, mac_retries=0)
        tx, rx = build_pair(sim, lossy, redundancy=2)
        tx.start_sending()
        sim.run(10.0)
        stats = rx.jitter_buffer.stats
        assert rx.packets_recovered > 20
        assert stats.played > stats.unique  # recovery on top of receipts
        quality = rx.quality(expected_override=tx.packets_sent)
        assert quality.effective_loss_ratio < quality.network_loss_ratio
        assert quality.packets_recovered == rx.packets_recovered

    def test_redundancy_bounds_history(self, sim, medium):
        tx, rx = build_pair(sim, medium, redundancy=2)
        tx.start_sending()
        sim.run(1.0)
        assert len(tx._red_history) <= 2
        # Clean channel: everything arrives as a primary, nothing to rebuild.
        assert rx.packets_recovered == 0


class TestSilenceSuppression:
    def test_vad_suppresses_frames_and_sends_comfort_noise(self, sim, medium):
        tx, rx = build_pair(sim, medium, vad=True)
        tx.start_sending()
        sim.run(30.0)
        nominal = int(30.0 / tx.codec.frame_interval)
        assert 0 < tx.packets_sent < nominal * 0.9
        assert rx.cn_received > 0
        # Talk-spurt starts carry the marker bit: the buffer re-anchors.
        assert rx.jitter_buffer.stats.retargets > 0
        assert rx.jitter_buffer.stats.played > 0

    def test_vad_schedule_is_deterministic(self):
        def run_once():
            sim = Simulator(seed=77)
            medium = WirelessMedium(sim, stats=Stats(), tx_range=150.0)
            a, b = make_chain(sim, medium, 2, static_routes=True)
            tx = RtpSession(a, 16384, remote=(b.ip, 16384), vad=True)
            rx = RtpSession(b, 16384, remote=(a.ip, 16384), vad=True)
            tx.start_sending()
            sim.run(20.0)
            return tx.packets_sent, rx.cn_received, rx.jitter_buffer.stats.played

        assert run_once() == run_once()


class TestDtmf:
    def test_digits_arrive_in_order(self, sim, medium):
        tx, rx = build_pair(sim, medium)
        tx.start_sending()
        tx.send_dtmf("1#A")
        sim.run(2.0)
        assert rx.dtmf_received == ["1", "#", "A"]
        assert rx.node.stats.count("rtp.dtmf_events") == 3

    def test_invalid_digit_rejected(self, sim, medium):
        tx, _ = build_pair(sim, medium)
        with pytest.raises(CodecError):
            tx.send_dtmf("1z")

    def test_dtmf_needs_a_remote(self, sim, medium):
        nodes = make_chain(sim, medium, 2, static_routes=True)
        session = RtpSession(nodes[0], 16384)
        with pytest.raises(CodecError):
            session.send_dtmf("1")


class TestMeasuredQuality:
    def test_playout_delay_feeds_the_delay_impairment(self, sim, medium):
        """Regression: ``quality()`` used to ignore the jitter-buffer
        playout delay, overstating MOS on long-buffer streams."""
        tx, _ = build_pair(sim, medium)
        slim, fat = (
            RtpSession(tx.node, port, remote=("192.168.0.2", port), playout_delay=delay)
            for port, delay in ((16400, 0.02), (16402, 0.22))
        )
        for session in (slim, fat):
            packet = RtpPacket(
                payload_type=0,
                sequence=1,
                timestamp=0,
                ssrc=7,
                payload=make_voice_payload(160, 0.0),
            )
            session._on_datagram(packet.encode(), "192.168.0.2", 16384)
        q_slim, q_fat = slim.quality(1), fat.quality(1)
        assert q_fat.playout_delay == pytest.approx(0.22)
        assert q_fat.mouth_to_ear_delay == pytest.approx(q_fat.mean_delay + 0.22)
        assert q_fat.mos < q_slim.mos

    def test_clean_two_node_stream_is_toll_quality(self, sim, medium):
        tx, rx = build_pair(sim, medium)
        tx.start_sending()
        sim.run(10.0)
        quality = rx.quality(expected_override=tx.packets_sent)
        assert quality.mos > 4.0
        assert quality.packets_recovered == 0


def test_score_stream_playout_delay_lowers_mos():
    """Pre-fix-failing form of the E-model accounting bug: the same stream
    measured behind a 200 ms jitter buffer must score strictly worse."""
    from repro.rtp import score_stream

    kwargs = dict(
        codec=G711,
        packets_expected=100,
        packets_received=100,
        packets_played=100,
        delays=[0.05] * 100,
        jitter=0.002,
    )
    unbuffered = score_stream(**kwargs)
    buffered = score_stream(**kwargs, playout_delay=0.2)
    assert unbuffered.mouth_to_ear_delay == pytest.approx(0.05)
    assert buffered.mouth_to_ear_delay == pytest.approx(0.25)
    assert buffered.mos < unbuffered.mos
