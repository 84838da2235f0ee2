"""Route recovery under faults (ISSUE 4 satellite coverage).

Gaps the fault-injection work flushed out: AODV re-discovery after a
route idles past ACTIVE_ROUTE_TIMEOUT, RERR propagation when a relay
crashes mid-call, AODV relays answering a restarted node's lookups, OLSR
topology repair after a relay crash, and OLSR taking a restarted node's
TCs.
"""

from repro.faults import FaultPlan
from repro.routing import Aodv
from repro.scenarios import ManetConfig, ManetScenario
from repro.trace import TraceCollector
from tests.routing.test_aodv import build_aodv_chain


class TestAodvRouteExpiry:
    def test_route_rediscovered_after_idle_expiry(self):
        sim, stats, nodes, daemons = build_aodv_chain(4)
        collector = TraceCollector().attach(sim)
        got = []
        nodes[3].bind(9000, lambda data, src, sport: got.append(sim.now))
        nodes[0].send_udp(nodes[3].ip, 9000, 9000, b"one")
        sim.run(5.0)
        assert len(got) == 1
        assert daemons[0].hop_count_to(nodes[3].ip) == 3
        # Idle well past ACTIVE_ROUTE_TIMEOUT: every route on the path dies.
        sim.run(5.0 + Aodv.ACTIVE_ROUTE_TIMEOUT + 3.0)
        assert daemons[0].hop_count_to(nodes[3].ip) is None
        nodes[0].send_udp(nodes[3].ip, 9000, 9000, b"two")
        sim.run(sim.now + 5.0)
        assert len(got) == 2  # delivered again after a fresh discovery
        assert daemons[0].hop_count_to(nodes[3].ip) == 3
        kinds = [event.kind for event in collector]
        assert "aodv.route_expired" in kinds
        # Two full discoveries completed at the originator.
        completions = [
            event for event in collector
            if event.kind == "aodv.discovery_complete" and event.node == nodes[0].ip
        ]
        assert len(completions) == 2


class TestAodvRelayCrash:
    def test_rerr_propagates_and_traffic_reroutes(self):
        # Chain at 70m spacing / 150m tx range: each node reaches +-2
        # neighbours, so the path survives any single relay crash.
        plan = FaultPlan().crash(8.0, 2)
        scenario = ManetScenario(
            ManetConfig(
                n_nodes=5,
                topology="chain",
                routing="aodv",
                spacing=70.0,
                seed=11,
                tracing=True,
                faults=plan,
            )
        )
        scenario.start()
        scenario.add_phone(0, "alice")
        scenario.add_phone(4, "bob")
        scenario.converge()
        # First call spans the relay crash at t=8.
        first = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=10.0)
        assert first.established
        rerrs = [event for event in scenario.trace if event.kind == "aodv.rerr"]
        assert any(event.detail.get("origin") for event in rerrs)
        # A second call must come up over the repaired route.
        second = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=3.0)
        assert second.established
        scenario.stop()


class TestAodvRestart:
    def test_restarted_originator_lookups_are_answered(self):
        """A neighbour forgets a RREQ id once PATH_DISCOVERY_TIME passes.

        Node 3 calls node 0, crashes at 10 s and restarts at 25 s; its SLP
        plugin numbers its lookups from the same first RREQ id again. The
        relays must not drop them as duplicates: the next call succeeds.
        """
        plan = FaultPlan().crash(10.0, 3).restart(25.0, 3)
        scenario = ManetScenario(
            ManetConfig(
                n_nodes=4,
                topology="chain",
                routing="aodv",
                seed=5,
                connection_provider=False,
                faults=plan,
            )
        )
        scenario.start()
        scenario.add_phone(0, "user0")
        scenario.add_phone(3, "user3")
        scenario.sim.run(3.5)
        first = scenario.call_and_wait("user3", "sip:user0@voicehoc.ch", duration=2.0)
        assert first.established_at is not None
        scenario.sim.run(26.5)
        assert scenario.nodes[3].up
        # The restarted stack is built as the first was: no Connection Provider.
        assert scenario.stacks[3].connection is None
        second = scenario.call_and_wait("user3", "sip:user0@voicehoc.ch", duration=2.0)
        assert second.failure_status is None
        assert second.established_at is not None
        scenario.stop()


class TestOlsrRelayCrash:
    def test_topology_repairs_and_call_succeeds(self):
        plan = FaultPlan().crash(14.0, 2)
        scenario = ManetScenario(
            ManetConfig(
                n_nodes=5,
                topology="chain",
                routing="olsr",
                spacing=70.0,
                seed=4,
                faults=plan,
            )
        )
        scenario.start()
        scenario.add_phone(0, "alice")
        scenario.add_phone(4, "bob")
        scenario.converge()
        scenario.sim.run(14.0)
        assert not scenario.nodes[2].up
        # Let OLSR age out the dead relay and re-run topology control.
        scenario.sim.run(40.0)
        assert scenario.stacks[0].routing.hop_count_to(scenario.nodes[4].ip) is not None
        record = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=3.0)
        assert record.established
        scenario.stop()


class TestOlsrRestart:
    def test_restarted_originator_tcs_are_taken(self):
        """Only a live topology entry rejects an older ANSN (RFC 3626 §9.5).

        Node 2 sends six TCs, crashes at 40 s and restarts at 45 s with its
        ANSN counting from 1 again. Node 0's entry for it expires at about
        50 s; from then on node 0 must take the new TCs.
        """
        plan = FaultPlan().crash(40.0, 2).restart(45.0, 2)
        scenario = ManetScenario(
            ManetConfig(
                n_nodes=5,
                topology="chain",
                routing="olsr",
                spacing=90.0,
                tx_range=100.0,
                seed=4,
                faults=plan,
            )
        )
        scenario.start()
        scenario.sim.run(60.0)
        entry = scenario.stacks[0].routing._topology[scenario.nodes[2].ip]
        assert entry.ansn == scenario.stacks[2].routing._ansn == 2
        assert entry.expires_at > scenario.sim.now
        scenario.stop()
