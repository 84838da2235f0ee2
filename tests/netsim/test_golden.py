"""Golden fingerprints: seeded gate workloads must keep producing the same bytes.

Each gate in :data:`repro.experiments.gates.GATES` runs once in a fresh
interpreter. Its canonical text must pass the gate's own check, and its
sha256 digest must equal the one committed in ``golden.json``. A mismatch
means the simulation's behaviour changed: if the change is intended, the
new digest printed by the failure replaces the old one in the same commit.

Run one gate by hand with
``PYTHONPATH=src python -m repro.experiments.gates <name> | sha256sum``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.gates import GATES, run_fresh

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))


def test_golden_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(GATES)


@pytest.mark.parametrize("name", sorted(GATES))
def test_fingerprint_matches_golden(name):
    text = run_fresh(name)
    assert GATES[name].check(text) == []
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[name], (
        f"golden fingerprint changed for gate {name!r}: new digest {digest}"
    )
