"""Golden fingerprints: seeded scenarios must keep producing the same bytes.

Each named scenario runs in a fresh interpreter (protocol identifiers come
from process-global counters, so a fresh process needs no
``registry.reset_all()``) and is reduced to one sha256 digest over the
canonical JSON of its ``Stats.to_dict()``, event counts and byte-exact
trace export. ``golden.json`` holds the committed digests. A mismatch means
the simulation's behaviour changed: if the change is intended, the new
digest printed by the failure replaces the old one in the same commit.

Run one scenario by hand with
``PYTHONPATH=src python tests/netsim/test_golden.py <name>``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults.channel import GilbertElliottChannel, TimedGilbertElliottChannel
from repro.faults.plan import FaultPlan
from repro.scenarios import ManetConfig, ManetScenario

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def _fault_mobile_aodv():
    """25-node mobile AODV: bursty channel, crash/partition/heal/restart, bounded TX queues."""
    plan = (
        FaultPlan()
        .crash(at=14.0, node=7)
        .partition(at=16.0, group_a=(0, 1, 2), group_b=(20, 21, 22), name="split")
        .heal(at=20.0, name="split")
        .restart(at=22.0, node=7)
        .with_channel(GilbertElliottChannel(p_gb=0.05, p_bg=0.3, loss_bad=0.8))
    )
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=25,
            topology="random",
            routing="aodv",
            seed=2026,
            tx_range=250.0,
            area=(700.0, 700.0),
            mobility=True,
            tracing=True,
            faults=plan,
            tx_queue_capacity=16,
            tx_queue_policy="tail-drop",
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(24, "bob")
    scenario.converge()
    scenario.phones["alice"].place_call("sip:bob@voicehoc.ch", duration=5.0)
    scenario.sim.run(scenario.sim.now + 15.0)
    scenario.stop()
    return scenario


def _lossy_mobile_aodv():
    """16-node mobile AODV with 5 % uniform loss and one call."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=16,
            topology="random",
            routing="aodv",
            seed=7,
            tx_range=250.0,
            area=(600.0, 600.0),
            loss_rate=0.05,
            mobility=True,
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(15, "bob")
    scenario.converge()
    scenario.phones["alice"].place_call("sip:bob@voicehoc.ch", duration=5.0)
    scenario.sim.run(scenario.sim.now + 12.0)
    scenario.stop()
    return scenario


def _olsr_grid_call():
    """3x3 OLSR grid: periodic HELLO/TC carrying SLP piggybacks, one corner-to-corner call."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=9,
            topology="grid",
            routing="olsr",
            seed=5,
            spacing=100.0,
            tx_range=150.0,
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(8, "bob")
    scenario.converge()
    scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=4.0)
    scenario.stop()
    return scenario


def _fading_media_call():
    """2-hop AODV chain, adaptive playout + RFC 2198 depth 2 over a timed Gilbert–Elliott fade."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=3,
            topology="chain",
            routing="aodv",
            seed=3,
            mac_retries=1,
            aodv_net_diameter=2,
            faults=FaultPlan(channel=TimedGilbertElliottChannel(mean_good=1.2, mean_bad=0.05)),
            media_jitter_policy="adaptive",
            media_redundancy=2,
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(2, "bob")
    scenario.converge()
    scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=4.0)
    scenario.stop()
    return scenario


SCENARIOS = {
    "fault_mobile_aodv": _fault_mobile_aodv,
    "lossy_mobile_aodv": _lossy_mobile_aodv,
    "olsr_grid_call": _olsr_grid_call,
    "fading_media_call": _fading_media_call,
}


def fingerprint(name: str) -> str:
    """Run one scenario in this process and return its sha256 digest."""
    scenario = SCENARIOS[name]()
    assert scenario.trace is not None
    canonical = json.dumps(
        {
            "stats": scenario.stats.to_dict(),
            "events_processed": scenario.sim.events_processed,
            "pending_events": scenario.sim.pending_events,
            "trace": scenario.trace.export_jsonl(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fingerprint_in_fresh_process(name: str) -> str:
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, __file__, name],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=300,
    )
    return result.stdout.strip()


def test_golden_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_matches_golden(name):
    digest = _fingerprint_in_fresh_process(name)
    assert digest == GOLDEN[name], (
        f"golden fingerprint changed for scenario {name!r}: new digest {digest}"
    )


if __name__ == "__main__":
    print(fingerprint(sys.argv[1]))
