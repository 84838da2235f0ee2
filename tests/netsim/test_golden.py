"""Golden fingerprints: seeded gate workloads must keep producing the same bytes.

One module-scoped fixture starts two fresh interpreters together. One runs
every gate in :data:`repro.experiments.gates.GATES` in sorted order under
``PYTHONHASHSEED=0``; the other runs them in reverse order under another
hash seed. Neither resets anything between gates, so the first gate in
each proves fresh-process identity and the others prove that a run
depends on its seed alone, not on what ran before it. In both, a gate's
canonical text must pass the gate's own check, and its sha256 digest must
equal the one committed in ``golden.json``. A mismatch means the
simulation's behaviour changed: if the change is intended, the new digest
printed by the failure replaces the old one in the same commit.

Print gates' digests by hand with
``PYTHONPATH=src python -m repro.experiments.gates <name> [<name> ...]``.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.experiments.gates import GATES, run_fresh

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))

#: (gate order, PYTHONHASHSEED) of the two interpreters.
INTERPRETERS = ((sorted(GATES), 0), (sorted(GATES, reverse=True), 12345))


@pytest.fixture(scope="module")
def gate_runs():
    with ThreadPoolExecutor(max_workers=len(INTERPRETERS)) as pool:
        futures = [pool.submit(run_fresh, names, seed) for names, seed in INTERPRETERS]
        return [(seed, future.result()) for (_, seed), future in zip(INTERPRETERS, futures)]


def test_golden_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(GATES)


@pytest.mark.parametrize("name", sorted(GATES))
def test_fingerprint_matches_golden(name, gate_runs):
    for seed, results in gate_runs:
        result = results[name]
        assert result.failures == (), f"PYTHONHASHSEED={seed}: {result.failures}"
        assert result.digest == GOLDEN[name], (
            f"golden fingerprint changed for gate {name!r} under PYTHONHASHSEED="
            f"{seed}: new digest {result.digest}"
        )
