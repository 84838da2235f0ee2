"""Smoke tests for the experiment functions no gate runs.

Every table a gate pins runs in tier-1 through ``tests/netsim/test_golden.py``
with its artifact's check (see ``repro.experiments.artifacts``). These
tests cover what those gates do not: the discovery workload runner and the
overhead table at a minimal size with the scheme guard, the footprint's
sizes and peak-memory note, which the F6 gate does not pin, the library
inventory, which changes with every edit, and the media and city
experiments, which have no gate.
"""

import math

import pytest

from repro.experiments import (
    call_flow_table,
    footprint_table,
    media_quality_table,
    module_inventory_table,
    overhead_vs_nodes_table,
    run_city_workload,
    run_discovery_workload,
)
from repro.experiments.media import run_media_point
from repro.experiments.city import city_area


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


class TestInfrastructureExperiments:
    def test_footprint_has_all_components(self):
        table = footprint_table()
        assert len(table.rows) == 6
        assert all(row[2] > 0 for row in table.rows)  # loc > 0

    def test_stack_memory_note_ignores_earlier_runs(self):
        """F6's peak-memory note reads the same after an F3 table as before it."""

        def memory_note():
            return [note for note in footprint_table().notes if "peak memory" in note]

        before = memory_note()
        call_flow_table()
        assert len(before) == 1
        assert memory_note() == before

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
