"""Acceptance tests for the chaos harness, artifact R1.

A seeded chain scenario takes a mid-call relay crash plus an abrupt
gateway failure; the call workload must re-establish, and a rerun must
reproduce the identical fault schedule and applied-event log.
(Full byte-identical *trace* reruns are a fresh-process contract — the
``R1`` gate in ``tests/netsim/test_golden.py`` checks that, like
``tests/trace/test_determinism.py`` does for plain tracing.)
"""

import dataclasses

import pytest

from repro.faults import GilbertElliottChannel, FaultPlan, analyze_recovery
from repro.faults.harness import HOPS, RELAY, run_chaos
from repro.scenarios import ManetConfig, ManetScenario
from repro.trace.events import TraceEvent


@pytest.fixture(scope="module")
def chaos_result():
    return run_chaos()


class TestRecovery:
    def test_post_fault_call_reestablishes(self, chaos_result):
        assert chaos_result.recovered
        assert chaos_result.second_call.established

    def test_every_planned_fault_fired(self, chaos_result):
        injector = chaos_result.scenario.faults
        fired = [entry[1]["kind"] for entry in injector.applied]
        assert fired == [event.kind for event in chaos_result.plan.events]

    def test_gateway_failover_observed(self, chaos_result):
        report = chaos_result.report
        assert report.gateway_failover_latency
        assert all(latency > 0 for latency in report.gateway_failover_latency.values())

    def test_relay_reregisters_after_restart(self, chaos_result):
        # The relay restarts and re-advertises carol's contact at 33.0 s;
        # its neighbour 192.168.0.2 learns it at 33.501 s.
        assert chaos_result.report.reregistration_latency == {
            "192.168.0.3": pytest.approx(0.50, abs=0.005)
        }

    def test_route_rediscovery_recorded(self, chaos_result):
        assert chaos_result.report.route_rediscovery_latency


class TestDeterminism:
    def test_same_seed_same_schedule_and_applied_log(self, chaos_result):
        rerun = run_chaos()
        assert rerun.plan.describe() == chaos_result.plan.describe()
        assert rerun.scenario.faults.applied == chaos_result.scenario.faults.applied

    def test_schedule_is_tracing_independent(self, chaos_result):
        # The chaos run always traces; its scenario untraced fires the same
        # faults at the same times and still recovers.
        traced = chaos_result.scenario
        untraced = ManetScenario(dataclasses.replace(traced.config, tracing=False))
        untraced.start()
        for index, user in ((0, "alice"), (HOPS, "bob"), (RELAY, "carol")):
            untraced.add_phone(index, user)
        untraced.converge()
        untraced.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=15.0)
        second = untraced.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=5.0)
        untraced.sim.run(traced.sim.now)
        untraced.stop()
        assert untraced.trace is None
        assert untraced.faults.applied == traced.faults.applied
        assert second.established


class TestScenarioIntegration:
    def test_channel_model_plugs_into_medium(self):
        channel = GilbertElliottChannel(p_gb=0.01, p_bg=0.5)
        plan = FaultPlan().with_channel(channel)
        scenario = ManetScenario(
            ManetConfig(n_nodes=3, seed=3, faults=plan)
        )
        assert scenario.medium.channel is channel

    def test_bursty_channel_still_delivers_calls(self):
        channel = GilbertElliottChannel(p_gb=0.02, p_bg=0.6, loss_bad=0.8)
        plan = FaultPlan().with_channel(channel)
        scenario = ManetScenario(
            ManetConfig(n_nodes=3, seed=3, spacing=70.0, faults=plan)
        )
        scenario.start()
        scenario.add_phone(0, "alice")
        scenario.add_phone(2, "bob")
        scenario.converge()
        record = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=3.0)
        assert record.established

    def test_analyze_recovery_counts_call_outcomes(self, chaos_result):
        records = chaos_result.scenario.call_records()
        report = analyze_recovery([], records)
        assert report.calls_placed == len(records) > 0
        assert report.calls_established >= 2


def event(t, kind, node, **detail):
    return TraceEvent(t=t, seq=0, kind=kind, node=node, detail=detail)


class TestFailoverAttribution:
    """Only clients whose tunnel to the downed gateway drops after the fault fail over."""

    GATEWAY = "192.168.0.4"

    def test_client_orphaned_before_the_fault_is_not_a_failover(self):
        # The relay loses its tunnel to its own crash, the gateway dies 3 s
        # later, and the relay reconnects only after its restart.
        events = [
            event(8.0, "fault.node_crash", "192.168.0.3"),
            event(8.0, "tunnel.disconnected", "192.168.0.3", gateway=self.GATEWAY),
            event(11.0, "fault.gateway_down", self.GATEWAY),
            event(33.0, "fault.node_restart", "192.168.0.3"),
            event(33.5, "tunnel.connected", "192.168.0.3", gateway="192.168.0.5"),
            event(47.9, "tunnel.disconnected", "192.168.0.2", gateway=self.GATEWAY),
            event(58.7, "tunnel.connected", "192.168.0.2", gateway="192.168.0.5"),
        ]
        report = analyze_recovery(events)
        assert report.gateway_failover_latency == {"192.168.0.2": pytest.approx(47.7)}

    def test_client_of_another_gateway_is_not_a_failover(self):
        events = [
            event(11.0, "fault.gateway_down", self.GATEWAY),
            event(20.0, "tunnel.disconnected", "192.168.0.1", gateway="192.168.0.5"),
            event(21.0, "tunnel.connected", "192.168.0.1", gateway="192.168.0.5"),
        ]
        assert analyze_recovery(events).gateway_failover_latency == {}

    def test_chaos_run_counts_only_the_orphaned_clients(self, chaos_result):
        # Node 2's relay (192.168.0.3) lost its tunnel to its own crash at 8 s.
        assert sorted(chaos_result.report.gateway_failover_latency) == [
            "192.168.0.1",
            "192.168.0.2",
        ]


class TestReregistrationLatency:
    """Re-registration ends when another node learns a URL the restarted node re-advertised."""

    RELAY = "192.168.0.3"
    CONTACT = "service:siphoc-sip://192.168.0.3:5060"
    OTHER = "service:siphoc-sip://192.168.0.5:5060"

    def test_ignores_the_local_register_and_unrelated_learnings(self):
        events = [
            event(7.0, "slp.advertise", self.RELAY, url=self.CONTACT),
            event(33.0, "fault.node_restart", self.RELAY),
            event(33.0, "sip.register", self.RELAY, aor="sip:carol@voicehoc.ch"),
            event(33.2, "slp.entry_learned", self.RELAY, url=self.OTHER),
            event(33.3, "slp.entry_learned", "192.168.0.2", url=self.CONTACT),
            event(33.4, "slp.advertise", self.RELAY, url=self.CONTACT),
            event(33.5, "slp.entry_learned", self.RELAY, url=self.CONTACT),
            event(33.9, "slp.entry_learned", "192.168.0.4", url=self.CONTACT),
        ]
        report = analyze_recovery(events)
        assert report.reregistration_latency == {self.RELAY: pytest.approx(0.9)}

    def test_no_learning_means_no_latency(self):
        events = [
            event(33.0, "fault.node_restart", self.RELAY),
            event(33.0, "slp.advertise", self.RELAY, url=self.CONTACT),
        ]
        assert analyze_recovery(events).reregistration_latency == {}
