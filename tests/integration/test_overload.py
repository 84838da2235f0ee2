"""Integration: SIP admission control under load on a relay chain (§5f).

The overload acceptance scenario: with the proxy at its admission
watermark, new INVITEs are shed with 503 + Retry-After while established
calls keep their RTP flowing.
"""

from repro.core import AnswerMode
from repro.core.config import SiphocConfig
from repro.scenarios import ManetConfig, ManetScenario
from repro.sip import AdmissionControl, CallState

BOB = "sip:bob@voicehoc.ch"


def build(seed=11):
    """3-node chain, admission max_inflight=1, alice calling bob end to end."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=3,
            topology="chain",
            routing="aodv",
            seed=seed,
            siphoc=SiphocConfig(admission_max_inflight=1),
        )
    )
    scenario.start()
    alice = scenario.add_phone(0, "alice")
    bob = scenario.add_phone(2, "bob")
    scenario.converge()
    return scenario, alice, bob


def advance(scenario, dt):
    scenario.sim.run(scenario.sim.now + dt)


class TestAdmissionUnderLoad:
    def test_new_invites_shed_while_established_call_keeps_media(self):
        scenario, alice, bob = build()
        # Call 1 establishes and talks for 8 s.
        call1 = alice.place_call(BOB, duration=8.0)
        record1 = alice.history[-1]
        advance(scenario, 2.0)
        assert call1.state is CallState.ESTABLISHED

        # Call 2 rings forever (callee goes manual), pinning the proxy's
        # inflight gauge at the watermark.
        bob.answer_mode = AnswerMode.MANUAL
        alice.place_call(BOB)
        advance(scenario, 1.0)

        # Call 3 hits the watermark: shed with 503 + Retry-After, no queueing.
        alice.place_call(BOB)
        record3 = alice.history[-1]
        advance(scenario, 2.0)
        assert record3.failure_status == 503
        assert record3.retry_after == AdmissionControl.RETRY_AFTER == 5
        assert not record3.established
        assert scenario.stats.count("sip.admission_rejected") >= 1

        # The established call never noticed: still up right through the
        # rejection, then completes its talk time with media on the wire.
        assert call1.state is CallState.ESTABLISHED
        advance(scenario, 9.0)
        scenario.stop()
        assert record1.established
        assert record1.final_state == "terminated"
        assert record1.quality is not None
        assert record1.quality.packets_received > 0

    def test_same_seed_runs_agree_on_shedding(self):
        outcomes = []
        for _ in range(2):
            scenario, alice, bob = build(seed=23)
            bob.answer_mode = AnswerMode.MANUAL
            alice.place_call(BOB)
            advance(scenario, 1.0)
            alice.place_call(BOB)
            advance(scenario, 2.0)
            scenario.stop()
            outcomes.append(
                (
                    [
                        (r.failure_status, r.retry_after)
                        for r in alice.history
                        if r.direction == "out"
                    ],
                    scenario.stats.count("sip.admission_rejected"),
                )
            )
        assert outcomes[0] == outcomes[1]
