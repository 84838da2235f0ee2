"""Mid-call multihomed handover: policy behaviour and failure drills (§5k).

Covers the HandoverPolicy end to end (the happy path rides the
H1 coverage-loss trial), the two required failure drills — peer
crash and MANET partition during the migration window — and the
ConnectionProvider cooldown-map pruning regression that the handover
work is layered on.
"""

from repro.core import ConnectionProvider, ManetSlp, make_handler
from repro.faults import FaultPlan
from repro.experiments.handover import run_handover_trial
from repro.netsim import Node, Simulator, Stats, WirelessMedium, manet_ip, place_chain
from repro.routing import Aodv
from repro.scenarios import ManetConfig, ManetScenario
from repro.sip.ua import CallState


class TestFailedCooldownPrune:
    """Satellite: ConnectionProvider._failed must not grow without bound."""

    def build_provider(self):
        sim = Simulator(seed=11)
        stats = Stats()
        medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
        node = Node(sim, 0, manet_ip(0), stats=stats)
        node.join_medium(medium)
        daemon = Aodv(node)
        daemon.start()
        slp = ManetSlp(node, make_handler(daemon)).start()
        provider = ConnectionProvider(node, slp).start()
        return sim, provider

    def test_expired_entries_dropped_on_poll(self):
        sim, provider = self.build_provider()
        provider._failed["10.0.0.9"] = sim.now + 5.0
        sim.run(sim.now + 10.0)  # idle polling, no gateways anywhere
        assert provider._failed == {}

    def test_live_entries_survive_the_prune(self):
        sim, provider = self.build_provider()
        provider._failed["10.0.0.8"] = sim.now + 2.0
        provider._failed["10.0.0.9"] = sim.now + 1000.0
        sim.run(sim.now + 6.0)
        assert provider._failed == {"10.0.0.9": sim.now + 1000.0 - 6.0 + 0.0} or list(
            provider._failed
        ) == ["10.0.0.9"]


class TestMidCallHandover:
    """Happy path: the coverage-loss drill from the harness."""

    def test_call_survives_radio_loss(self):
        result = run_handover_trial(seed=7, loss_at=10.0)
        assert result.established
        assert result.survived
        assert result.succeeded == 1
        assert result.abandoned == 0
        # Same RtpSession object across the migration: SSRC, sequence
        # space and jitter buffer were never reset.
        assert result.ssrc_stable
        # The media gap stays under the policy's own RTP-silence trigger.
        assert result.media_gap_ms is not None and result.media_gap_ms < 1000.0

    def test_trace_ladder_records_the_migration(self):
        result = run_handover_trial(seed=7, loss_at=10.0)
        kinds = [line.split('"kind":"')[1].split('"')[0]
                 for line in result.trace_jsonl.splitlines()]
        for expected in (
            "fault.interface_down",
            "iface.down",
            "handover.trigger",
            "handover.attempt",
            "handover.complete",
            "handover.media_restored",
        ):
            assert expected in kinds, f"missing {expected} in {kinds}"

    def test_baseline_without_policy_dies(self):
        result = run_handover_trial(handover=False, seed=7, loss_at=10.0)
        assert result.established
        assert not result.survived
        assert result.attempted == 0


def build_handover_scenario(plan, multihomed, seed=7, hops=3):
    from repro.core.config import SiphocConfig

    scenario = ManetScenario(
        ManetConfig(
            n_nodes=hops + 1,
            topology="chain",
            routing="aodv",
            seed=seed,
            multihomed=multihomed,
            siphoc=SiphocConfig(handover=True),
            faults=plan,
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(hops, "bob")
    return scenario


def establish_call(scenario, duration=16.0):
    scenario.converge(5.0)
    alice = scenario.phones["alice"]
    call = alice.place_call("sip:bob@voicehoc.ch", duration=duration)
    scenario.sim.run_until(
        lambda: call.state is CallState.ESTABLISHED, timeout=6.0, step=0.1
    )
    assert call.state is CallState.ESTABLISHED
    return alice, call


class TestCrashDuringHandover:
    """Peer dies as coverage is lost: the give-up deadline must fire."""

    def test_giveup_tears_the_call_down_cleanly(self):
        # Bob's node crashes just before alice's radio dies, so every
        # migration re-INVITE lands on a dead wired address.
        plan = FaultPlan().crash(11.5, 3).interface_down(12.0, 0)
        scenario = build_handover_scenario(plan, multihomed=(0, 3))
        alice, call = establish_call(scenario)
        # Run well past GIVEUP_AFTER (6 s) plus SIP Timer F (32 s).
        scenario.sim.run(60.0)
        policy = scenario.stacks[0].handover
        assert policy is not None
        assert policy.active_attempts == 0
        stats = scenario.stats
        assert stats.count("handover.attempted") >= 1
        assert stats.count("handover.succeeded") == 0
        assert stats.count("handover.abandoned") == 1
        abandoned = scenario.trace.select(kind="handover.abandoned")
        assert abandoned and abandoned[0].detail["cause"] == "deadline"
        # Multiple attempts were made inside the give-up budget.
        assert len(scenario.trace.select(kind="handover.attempt")) >= 2
        # Clean teardown: the call left ESTABLISHED via the policy's BYE;
        # Timer F has fired, so no SIP timers or RTP sessions leak.
        assert call.state is CallState.TERMINATED
        assert alice._media_sessions == {}
        assert alice.ua.transactions.active_transactions == 0
        scenario.stop()


class TestPartitionDuringHandover:
    """Coverage loss with no usable fallback: abandon, don't wedge."""

    def test_peer_without_alt_contact_hits_the_deadline(self):
        # Only alice is multihomed: bob never advertised a wired fallback
        # contact, so every migration attempt fails immediately. Alice is
        # cut off by a partition (radio still up — the neighbor-loss and
        # RTP-silence triggers carry this drill, not interface_down).
        plan = FaultPlan().partition(12.0, (0,), (1, 2, 3), name="drift")
        scenario = build_handover_scenario(plan, multihomed=(0,))
        alice, call = establish_call(scenario)
        scenario.sim.run(70.0)
        assert scenario.stacks[0].handover is not None
        assert scenario.stats.count("handover.succeeded") == 0
        alice_ip = scenario.nodes[0].ip
        triggers = scenario.trace.select(kind="handover.trigger", node=alice_ip)
        assert triggers[0].detail["cause"] in ("neighbor_loss", "rtp_silence")
        abandoned = scenario.trace.select(kind="handover.abandoned", node=alice_ip)
        assert len(abandoned) == 1 and abandoned[0].detail["cause"] == "deadline"
        # Bob's side (no wired uplink at all) abandons immediately too —
        # with its own distinct cause — instead of wedging.
        bob_abandoned = scenario.trace.select(
            kind="handover.abandoned", node=scenario.nodes[3].ip
        )
        assert bob_abandoned and bob_abandoned[0].detail["cause"] == "no_uplink"
        assert call.state is CallState.TERMINATED
        assert alice._media_sessions == {}
        assert alice.ua.transactions.active_transactions == 0
        # Recovery metrics recorded even for the failure path.
        assert scenario.stats.counters.get("handover.attempted", 0) >= 1
        scenario.stop()
