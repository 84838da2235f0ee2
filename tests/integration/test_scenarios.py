"""Tests for the scenario builders themselves."""

import pytest

from repro.errors import ConfigError
from repro.scenarios import ManetConfig, ManetScenario, build_chain_call_scenario


class TestConstruction:
    def test_chain_topology_positions(self):
        scenario = ManetScenario(ManetConfig(n_nodes=4, topology="chain", spacing=80.0))
        xs = [node.position[0] for node in scenario.nodes]
        assert xs == [0.0, 80.0, 160.0, 240.0]

    def test_grid_topology(self):
        scenario = ManetScenario(ManetConfig(n_nodes=9, topology="grid", spacing=50.0))
        assert len({node.position for node in scenario.nodes}) == 9

    def test_random_topology_bounded(self):
        scenario = ManetScenario(
            ManetConfig(n_nodes=10, topology="random", area=(200.0, 100.0))
        )
        assert all(0 <= n.position[0] <= 200 and 0 <= n.position[1] <= 100
                   for n in scenario.nodes)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigError):
            ManetScenario(ManetConfig(topology="torus"))

    def test_overrides_apply(self):
        scenario = ManetScenario(ManetConfig(n_nodes=7, routing="olsr"))
        assert len(scenario.nodes) == 7
        assert scenario.stacks[0].routing.name == "olsr"

    def test_gateways_are_last_nodes(self):
        scenario = ManetScenario(
            ManetConfig(n_nodes=4, internet_gateways=1, providers=("siphoc.ch",))
        )
        assert scenario.nodes[-1].wired_ip is not None
        assert scenario.nodes[0].wired_ip is None
        assert scenario.stacks[-1].gateway is not None

    def test_providers_registered_in_dns(self):
        scenario = ManetScenario(
            ManetConfig(n_nodes=2, internet_gateways=1,
                        providers=("siphoc.ch",), strict_providers=("polyphone.ethz.ch",))
        )
        assert scenario.cloud.dns.resolve("siphoc.ch") is not None
        assert scenario.cloud.dns.resolve("sbc.polyphone.ethz.ch") is not None

    def test_same_seed_reproducible(self):
        a = build_chain_call_scenario(hops=2, seed=33)
        a.converge()
        record_a = a.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=2.0)
        a.stop()
        b = build_chain_call_scenario(hops=2, seed=33)
        b.converge()
        record_b = b.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=2.0)
        b.stop()
        assert record_a.setup_delay == pytest.approx(record_b.setup_delay, abs=1e-9)


class TestHelpers:
    def test_hop_count(self):
        scenario = build_chain_call_scenario(hops=3, routing="olsr", seed=34)
        scenario.converge(20.0)
        assert scenario.hop_count(0, 3) == 3
        scenario.stop()

    def test_call_and_wait_returns_failed_record(self):
        scenario = build_chain_call_scenario(hops=1, seed=35)
        scenario.converge()
        record = scenario.call_and_wait("alice", "sip:ghost@voicehoc.ch", duration=1.0)
        assert record.final_state == "failed"
        scenario.stop()


class TestMultihomed:
    def test_multihomed_nodes_get_uplink_without_gateway_role(self):
        from repro.scenarios import ManetConfig, ManetScenario

        scenario = ManetScenario(
            ManetConfig(
                n_nodes=4,
                topology="chain",
                seed=9,
                multihomed=(0, 3),
                internet_gateways=1,
            )
        )
        # Wired attachment everywhere it was asked for...
        assert scenario.nodes[0].wired_ip is not None
        assert scenario.nodes[3].wired_ip is not None
        assert scenario.nodes[1].wired_ip is None
        # ...but only the declared gateway runs a GatewayProvider: the
        # multihomed phone node must not advertise gateway.siphoc.
        assert scenario.stacks[0].gateway is None
        assert scenario.stacks[3].gateway is not None

    def test_restarted_multihomed_node_keeps_phone_role(self):
        from repro.scenarios import ManetConfig, ManetScenario

        scenario = ManetScenario(
            ManetConfig(n_nodes=3, topology="chain", seed=9, multihomed=(0,))
        )
        scenario.start()
        scenario.sim.run(2.0)
        scenario.crash_node(0)
        stack = scenario.restart_node(0)
        assert stack.gateway is None
        assert scenario.nodes[0].wired_ip is not None
        scenario.stop()
