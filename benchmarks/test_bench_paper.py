"""Paper artifacts: time every checked table of the registry and check its shape.

Each table of :data:`repro.experiments.artifacts.ARTIFACTS` that has a
check runs once under pytest-benchmark, with the parameters the gates and
EXPERIMENTS.md use. Its check must pass, and its text replaces its section
of ``benchmark_tables.txt``. The gated tables also run in tier-1 through
``tests/netsim/test_golden.py``; C1 is the one scale run without a gate,
so this file is where the city's wall-clock trend lives.
"""

import pytest

from benchmarks.conftest import show
from repro.experiments.artifacts import ARTIFACTS, table_runs

TABLES = [
    pytest.param(run, artifact.check, id=name)
    for key, artifact in ARTIFACTS.items()
    if artifact.check is not None
    for name, run in table_runs(key).items()
]


@pytest.mark.parametrize(("run", "check"), TABLES)
def test_paper_table(benchmark, run, check):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    show(str(result))
    assert check(result) == []
