"""Media-plane negotiation through the softphone and scenario layers (§5j):
RFC 2198 runs only when both ends negotiated it in SDP, and the
``ManetConfig`` media knobs flow into every phone the scenario builds."""

import pytest

from repro.core import SiphocStack
from repro.errors import ConfigError
from repro.netsim import Node, Simulator, Stats, WirelessMedium, manet_ip, place_chain
from repro.rtp import (
    COMFORT_NOISE_PAYLOAD_TYPE,
    H263,
    RED_PAYLOAD_TYPE,
    TELEPHONE_EVENT_PAYLOAD_TYPE,
)
from repro.scenarios import ManetConfig, ManetScenario


def build(n=2, seed=61):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
    stacks = []
    for index in range(n):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        stacks.append(SiphocStack(node, routing="aodv").start())
    place_chain([s.node for s in stacks], 100.0)
    return sim, stats, stacks


def active_session(phone):
    return next(iter(phone._media_sessions.values()))


class TestRedNegotiation:
    def call_sessions(self, caller_red, callee_red):
        sim, stats, stacks = build()
        alice = stacks[0].add_phone(username="alice", redundancy=caller_red)
        bob = stacks[1].add_phone(username="bob", redundancy=callee_red)
        sim.run(2.0)
        alice.place_call("sip:bob@voicehoc.ch", duration=6.0)
        sim.run(4.0)  # mid-call: media sessions are live
        return active_session(alice), active_session(bob)

    def test_both_ends_capable_enables_redundancy(self):
        tx, rx = self.call_sessions(2, 2)
        assert tx.redundancy == 2
        assert rx.redundancy == 2

    def test_callee_without_red_disables_it_everywhere(self):
        tx, rx = self.call_sessions(2, 0)
        assert tx.redundancy == 0
        assert rx.redundancy == 0

    def test_caller_without_red_disables_it_everywhere(self):
        tx, rx = self.call_sessions(0, 2)
        assert tx.redundancy == 0
        assert rx.redundancy == 0

    def test_clean_channel_call_records_no_recovery(self):
        sim, stats, stacks = build()
        alice = stacks[0].add_phone(username="alice", redundancy=2)
        bob = stacks[1].add_phone(username="bob", redundancy=2)
        sim.run(2.0)
        alice.place_call("sip:bob@voicehoc.ch", duration=4.0)
        sim.run(20.0)
        quality = alice.history[0].quality
        assert quality is not None
        assert quality.packets_recovered == 0
        assert quality.mos > 4.0


class TestMediaConfigValidated:
    @pytest.mark.parametrize(
        "phone_kwargs",
        [{"redundancy": 99}, {"codec": H263, "redundancy": 1}],
        ids=["depth_out_of_range", "frame_too_big_for_red"],
    )
    def test_bad_media_config_fails_at_construction(self, phone_kwargs):
        """Regression: both configs used to build, then raise out of
        ``sim.run`` once a call's media session started (the H.263 one at
        its second frame, when the first RFC 2198 secondary was encoded)."""
        sim, stats, stacks = build(n=1)
        with pytest.raises(ConfigError):
            stacks[0].add_phone(username="alice", **phone_kwargs)
        assert stacks[0].phones == []


class TestExtensionPayloads:
    def test_all_extensions_advertised(self):
        sim, stats, stacks = build(n=1)
        phone = stacks[0].add_phone(
            username="alice", redundancy=1, vad=True, dtmf=True
        )
        assert phone._extension_payloads() == [
            RED_PAYLOAD_TYPE,
            COMFORT_NOISE_PAYLOAD_TYPE,
            TELEPHONE_EVENT_PAYLOAD_TYPE,
        ]

    def test_defaults_advertise_nothing(self):
        sim, stats, stacks = build(n=1)
        phone = stacks[0].add_phone(username="alice")
        assert phone._extension_payloads() == []


class TestScenarioMediaKnobs:
    def make_scenario(self, **config_kwargs):
        scenario = ManetScenario(
            ManetConfig(n_nodes=2, topology="chain", routing="aodv", **config_kwargs)
        )
        scenario.start()
        return scenario

    def test_knobs_become_phone_defaults(self):
        scenario = self.make_scenario(
            media_jitter_policy="adaptive", media_redundancy=2, media_vad=True
        )
        phone = scenario.add_phone(0, "alice")
        assert phone.redundancy == 2
        assert phone.vad is True
        assert phone.jitter_policy is not None
        assert phone.jitter_policy.name == "adaptive"
        scenario.stop()

    def test_explicit_phone_kwargs_win(self):
        scenario = self.make_scenario(media_redundancy=2)
        phone = scenario.add_phone(0, "alice", redundancy=0)
        assert phone.redundancy == 0
        scenario.stop()

    def test_defaults_leave_phones_untouched(self):
        scenario = self.make_scenario()
        phone = scenario.add_phone(0, "alice")
        assert phone.redundancy == 0
        assert phone.vad is False
        assert phone.jitter_policy is None
        scenario.stop()

    def test_unknown_policy_name_rejected(self):
        scenario = self.make_scenario(media_jitter_policy="psychic")
        with pytest.raises(ConfigError):
            scenario.add_phone(0, "alice")
        scenario.stop()

    def test_aodv_net_diameter_flows_into_the_stacks(self):
        scenario = self.make_scenario(aodv_net_diameter=2)
        daemon = scenario.stacks[0].routing
        assert daemon.net_traversal_time == pytest.approx(2 * 0.04 * 2)
        scenario.stop()

    def test_default_diameter_keeps_the_rfc_horizon(self):
        scenario = self.make_scenario()
        daemon = scenario.stacks[0].routing
        assert daemon.net_traversal_time == pytest.approx(2.8)
        scenario.stop()
