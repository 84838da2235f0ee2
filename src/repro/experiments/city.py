"""C1: the 5k-node city — population-scale MANET VoIP (ROADMAP north star).

The paper's testbed is ~10 laptops; its future-work section (and the P2P
VoIP measurement literature in PAPERS.md) asks how the architecture behaves
at *population* scale. This experiment builds a city-sized MANET — thousands
of nodes random-placed over a square kilometre-scale area, all mobile under
random waypoint — and drives a staggered background load of SIP calls
between phone pairs a bounded distance apart (callers dial across a
neighbourhood, not across the whole city: a 40-hop route would churn faster
than AODV can repair it, which is a finding, not a workload).

Scale notes (what makes 5k nodes tractable at all):

* the Connection Provider is disabled (``connection_provider=False``) —
  with no Internet attachment every gateway poll would flood the whole
  MANET with an SLP lookup, O(N^2) receptions per round;
* AODV is reactive and hello-less here, so an idle city is silent — the
  event load is mobility ticks plus exactly the floods/signaling/media the
  call workload causes;
* one binary-heap event loop keeps per-event cost at O(log pending) and
  the medium's grid index keeps each neighbour lookup O(degree) (see
  DESIGN.md §5b, §5g); the wall-clock numbers live in ``benchmarks/``
  (DET001: experiment code never reads the host clock).
"""

from __future__ import annotations

import math

from repro.experiments.tables import Table
from repro.scenarios import ManetConfig, ManetScenario

#: Mean one-hop neighbor count the default area is sized for. ~10 keeps the
#: city connected (percolation needs ~4.5) without making every broadcast
#: O(dozens) of deliveries.
TARGET_DEGREE = 10.0


def city_area(n_nodes: int, tx_range: float, degree: float = TARGET_DEGREE) -> float:
    """Side of the square area giving a mean node degree of ``degree``."""
    return math.sqrt(n_nodes * math.pi * tx_range * tx_range / degree)


def build_city_scenario(
    n_nodes: int = 5000,
    tx_range: float = 150.0,
    seed: int = 1,
    mobility: bool = True,
) -> ManetScenario:
    """A city-scale MANET: random placement, random waypoint, no Internet."""
    side = city_area(n_nodes, tx_range)
    return ManetScenario(
        ManetConfig(
            n_nodes=n_nodes,
            topology="random",
            routing="aodv",
            seed=seed,
            tx_range=tx_range,
            area=(side, side),
            mobility=mobility,
            connection_provider=False,
        )
    )


def _pick_call_pairs(
    scenario: ManetScenario,
    n_calls: int,
    max_call_distance: float,
) -> list[tuple[int, int]]:
    """Caller/callee node pairs, callee within ``max_call_distance``.

    All draws come from the scenario's seeded RNG, so the pair list is part
    of the deterministic schedule. Callers with no in-range counterpart
    (isolated placements) are redrawn.
    """
    rng = scenario.sim.rng
    n = len(scenario.nodes)
    positions = [node.position for node in scenario.nodes]
    pairs: list[tuple[int, int]] = []
    limit_sq = max_call_distance * max_call_distance
    attempts = 0
    while len(pairs) < n_calls and attempts < 50 * n_calls:
        attempts += 1
        caller = rng.randrange(n)
        cx, cy = positions[caller]
        candidates = [
            index
            for index, (x, y) in enumerate(positions)
            if index != caller and (x - cx) ** 2 + (y - cy) ** 2 <= limit_sq
        ]
        if not candidates:
            continue
        pairs.append((caller, candidates[rng.randrange(len(candidates))]))
    return pairs


def run_city_workload(
    n_nodes: int = 5000,
    n_calls: int = 24,
    seed: int = 1,
    tx_range: float = 150.0,
    warmup: float = 5.0,
    call_spacing: float = 2.0,
    call_duration: float = 5.0,
    drain: float = 20.0,
    max_call_distance: float = 1200.0,
    mobility: bool = True,
    profiler=None,
) -> dict[str, object]:
    """Run one city scenario to completion; return its measurements.

    Calls are placed one every ``call_spacing`` seconds starting after
    ``warmup`` — a staggered background load, not a synchronized storm —
    and the run continues ``drain`` seconds past the last placement so
    late calls finish (or fail) before measurement.

    Passing a :class:`repro.metrics.profiler.KernelProfiler` installs it
    before any workload event is scheduled, so every handler in the run is
    attributed; it stays installed afterwards for the caller to report on.
    """
    scenario = build_city_scenario(
        n_nodes=n_nodes, tx_range=tx_range, seed=seed, mobility=mobility,
    )
    if profiler is not None:
        scenario.sim.attach_profiler(profiler)
    pairs = _pick_call_pairs(scenario, n_calls, max_call_distance)
    phone_nodes = sorted({index for pair in pairs for index in pair})
    for index in phone_nodes:
        scenario.add_phone(index, f"user{index}")
    scenario.start()
    scenario.converge(warmup)
    sim = scenario.sim
    for order, (caller, callee) in enumerate(pairs):
        sim.schedule_at(
            warmup + order * call_spacing,
            scenario.phones[f"user{caller}"].place_call,
            f"sip:user{callee}@voicehoc.ch",
            call_duration,
        )
    sim.run(warmup + n_calls * call_spacing + call_duration + drain)
    records = [r for r in scenario.call_records() if r.direction == "out"]
    established = [r for r in records if r.established]
    delays = [r.setup_delay for r in established if r.setup_delay is not None]
    summary = scenario.stats.summary()
    scenario.stop()
    return {
        "nodes": n_nodes,
        "phones": len(phone_nodes),
        "sim_time": sim.now,
        "calls": len(records),
        "established": len(established),
        "success_ratio": len(established) / len(records) if records else 0.0,
        "mean_setup_s": sum(delays) / len(delays) if delays else float("nan"),
        "events": sim.events_processed,
        "pending": sim.pending_events,
        "packets": summary["traffic"]["total"]["packets"],
    }


def city_table(
    node_counts: tuple[int, ...] = (1000, 5000),
    seeds: tuple[int, ...] = (1,),
    n_calls: int = 24,
    drain: float = 20.0,
    **workload_kwargs,
) -> Table:
    """C1: background call load on mobile city-scale MANETs."""
    table = Table(
        title="C1: city-scale MANET call load (random waypoint)",
        columns=[
            "nodes", "phones", "calls", "established", "success_ratio",
            "mean_setup_s", "sim_events", "packets",
        ],
    )
    for n_nodes in node_counts:
        for seed in seeds:
            result = run_city_workload(
                n_nodes=n_nodes, n_calls=n_calls, seed=seed, drain=drain,
                **workload_kwargs,
            )
            table.add_row(
                result["nodes"],
                result["phones"],
                result["calls"],
                result["established"],
                result["success_ratio"],
                result["mean_setup_s"],
                result["events"],
                result["packets"],
            )
    table.add_note(
        "reactive hello-less AODV: an idle city is silent; events are"
        " mobility ticks + call-induced floods/signaling/media"
    )
    table.add_note(
        f"callers dial within {workload_kwargs.get('max_call_distance', 1200.0):.0f} m"
        " (neighbourhood calls); connection provider off (no Internet)"
    )
    return table
