"""C1 — city-scale MANET call load (the ROADMAP's 5k-node scenario).

The benchmark parameters stay below the ``--full`` artifact (5 000 nodes
takes ~4 minutes of wall clock; ``python -m repro.experiments --full C1``
is the headline run) but are large enough that the wall-clock timing
pytest-benchmark records here tracks the event loop's scaling, which is
the point: per DET001 the experiment code never reads the host clock, so
this file is where the city's throughput trend lives.
"""

from benchmarks.conftest import run_once, show
from repro.experiments import city_table


def test_c1_city_calls(benchmark):
    table = run_once(
        benchmark,
        city_table,
        node_counts=(300, 1000),
        n_calls=12,
        drain=15.0,
    )
    show(table)
    for row in table.to_dicts():
        assert row["success_ratio"] >= 0.75, f"{row['nodes']} nodes: too many failures"
        assert row["sim_events"] > 50_000
