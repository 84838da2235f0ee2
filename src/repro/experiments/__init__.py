"""Experiment harness: one function per paper artifact.

Each function runs a complete simulated experiment and returns a
:class:`~repro.experiments.tables.Table` (F5 returns its rendered frame).
:data:`repro.experiments.artifacts.ARTIFACTS` names each artifact's
function, parameters and check; EXPERIMENTS.md records paper claim vs
measured for each.
"""

from repro.experiments.calls import (
    call_flow_table,
    capture_figure5,
    figure5_capture,
    scalability_table,
    setup_delay_table,
    voice_quality_table,
)
from repro.experiments.city import (
    build_city_scenario,
    city_table,
    run_city_workload,
)
from repro.experiments.convergence import cache_ablation_table, convergence_table
from repro.experiments.discovery import (
    DiscoveryResult,
    SCHEMES,
    ablation_discovery_table,
    overhead_vs_nodes_table,
    run_discovery_workload,
)
from repro.experiments.footprint import footprint_table, module_inventory_table
from repro.experiments.handover import handover_table, run_handover_trial
from repro.experiments.media import media_quality_table, run_media_point
from repro.experiments.gateway import gateway_table, interop_table
from repro.experiments.services import services_table
from repro.experiments.tables import Table

__all__ = [
    "DiscoveryResult",
    "SCHEMES",
    "Table",
    "ablation_discovery_table",
    "build_city_scenario",
    "cache_ablation_table",
    "call_flow_table",
    "capture_figure5",
    "city_table",
    "convergence_table",
    "figure5_capture",
    "footprint_table",
    "gateway_table",
    "handover_table",
    "interop_table",
    "media_quality_table",
    "module_inventory_table",
    "run_media_point",
    "run_handover_trial",
    "overhead_vs_nodes_table",
    "run_city_workload",
    "run_discovery_workload",
    "scalability_table",
    "services_table",
    "setup_delay_table",
    "voice_quality_table",
]
