"""Smoke tests: every experiment function produces a sound table.

The benchmarks run the full parameter sets; these tests run minimal
configurations so that ``pytest tests/`` alone exercises the whole
experiment harness.
"""

import math

import pytest

from repro.experiments import (
    ablation_discovery_table,
    services_table,
    cache_ablation_table,
    call_flow_table,
    convergence_table,
    footprint_table,
    gateway_table,
    media_quality_table,
    module_inventory_table,
    overhead_vs_nodes_table,
    run_city_workload,
    run_discovery_workload,
    scalability_table,
    setup_delay_table,
    voice_quality_table,
)
from repro.experiments.media import run_media_point
from repro.experiments.city import city_area


class TestCallExperiments:
    def test_call_flow_all_steps_pass(self):
        table = call_flow_table("aodv", seed=3)
        assert len(table.rows) == 8
        assert all(row[2] for row in table.rows)

    def test_setup_delay_minimal(self):
        table = setup_delay_table(hop_counts=(1, 3), routings=("aodv",), seeds=(1,))
        delays = table.column("mean_setup_s")
        assert delays[0] < delays[1] < 1.0

    def test_scalability_minimal(self):
        table = scalability_table(node_counts=(9,), seeds=(1,), calls_per_run=3)
        assert table.rows[0][3] >= 2 / 3

    def test_voice_quality_minimal(self):
        table = voice_quality_table(
            hop_counts=(1,), loss_rates=(0.0,), talk_time=5.0
        )
        row = table.to_dicts()[0]
        assert row["established"] and row["mos"] > 4.0


class TestDiscoveryExperiments:
    def test_workload_runner_shape(self):
        result = run_discovery_workload("siphoc", n_nodes=9, seed=1, n_lookups=4)
        assert result.lookups_attempted == 4
        assert result.lookups_resolved >= 3
        assert result.discovery_bytes == 0
        assert result.energy_joules > 0
        assert result.max_node_joules <= result.energy_joules

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_discovery_workload("carrier-pigeon")

    def test_overhead_table_minimal(self):
        table = overhead_vs_nodes_table(
            node_counts=(9,), schemes=("siphoc", "multicast-slp"), n_lookups=4
        )
        assert len(table.rows) == 2

    def test_ablation_minimal(self):
        table = ablation_discovery_table(n_nodes=9, seeds=(1,))
        schemes = table.column("scheme")
        assert "siphoc" in schemes and "proactive-hello" in schemes


class TestInfrastructureExperiments:
    def test_convergence_minimal(self):
        table = convergence_table(routings=("aodv",), n_nodes=4, seeds=(1,))
        lookup = next(r for r in table.to_dicts() if r["mode"] == "on-demand lookup")
        assert lookup["resolved"] == "1/1"

    def test_gateway_minimal(self):
        table = gateway_table(chain_lengths=(2,))
        row = table.to_dicts()[0]
        assert row["out_call"] and row["in_call"]

    def test_cache_ablation_minimal(self):
        table = cache_ablation_table(lifetimes=(10.0,), observation=20.0, n_nodes=4)
        assert table.rows[0][2] is True  # hit after warmup

    def test_footprint_has_all_components(self):
        table = footprint_table()
        assert len(table.rows) == 6
        assert all(row[2] > 0 for row in table.rows)  # loc > 0

    def test_services_minimal(self):
        table = services_table(hop_counts=(1,))
        row = table.to_dicts()[0]
        assert row["im_delivered"] and row["video_ok"]

    def test_module_inventory_nonempty(self):
        table = module_inventory_table()
        assert len(table.rows) >= 8


class TestMediaExperiment:
    def test_media_point_scores_a_call(self):
        quality, fade = run_media_point(
            policy="adaptive",
            redundancy=2,
            mean_good=5.0,
            mean_bad=0.03,
            hops=1,
            talk_time=4.0,
        )
        assert fade == pytest.approx(0.03 / 5.03)
        assert quality is not None
        assert 1.0 <= quality.mos <= 4.5
        assert quality.packets_recovered >= 0

    def test_media_table_minimal_shape(self):
        table = media_quality_table(
            codecs=("PCMU",),
            redundancies=(0,),
            policies=("fixed",),
            ge_points=((5.0, 0.03),),
            hops=1,
            talk_time=4.0,
        )
        row = table.to_dicts()[0]
        assert row["codec"] == "PCMU" and row["policy"] == "fixed"
        assert row["fade_pct"] == pytest.approx(0.6)
        assert not math.isnan(row["mos"])


class TestCityExperiment:
    def test_area_hits_target_degree(self):
        # n * pi * r^2 / side^2 == degree by construction
        side = city_area(5000, 150.0, degree=10.0)
        assert math.isclose(5000 * math.pi * 150.0**2 / side**2, 10.0)

    def test_city_workload_minimal(self):
        result = run_city_workload(
            n_nodes=120, n_calls=3, drain=10.0, max_call_distance=600.0
        )
        assert result["calls"] == 3
        assert result["established"] >= 2
        assert result["events"] > 10_000
        assert result["packets"] > 1_000
