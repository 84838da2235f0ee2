"""Same-seed parity of the event loop's equivalent ways to run a scenario.

The scenario runs with tracing, a bursty-loss channel model, a timed fault
schedule (crash/restart + partition/heal) and bounded TX queues all
enabled; each check compares complete Stats summaries, event/pending counts
AND the byte-for-byte trace export.

Two equivalences are pinned here:

- ``run()`` composes. Walking the timeline in fixed-width "calendar days"
  (one ``run()`` per day, the way a calendar queue walks its buckets) pops
  the same ``(time, seq)`` sequence as one uncut heap advance. The metrics
  scraper relies on this to cut runs without changing them.
- ``Simulator.schedule_batch`` is one ``schedule`` call per entry. The
  per-neighbour path is built from outside by shadowing ``schedule_batch``
  on the instance with exactly that loop.

Identifier counters (call-ids, branches, packet uids, ...) are process-
global, so in-process reruns reset them via the global-state registry's
``reset_all``.
"""

import pytest

from repro.faults.channel import GilbertElliottChannel
from repro.faults.plan import FaultPlan
from repro.globalstate import registry
from repro.scenarios import ManetConfig, ManetScenario

#: How the final 15 s of the scenario are advanced: "heap" in one run()
#: call, "calendar" in one run() call per CALENDAR_DAY.
KERNELS = ("heap", "calendar")
CALENDAR_DAY = 0.25


def build_plan() -> FaultPlan:
    return (
        FaultPlan()
        .crash(at=14.0, node=7)
        .partition(at=16.0, group_a=(0, 1, 2), group_b=(20, 21, 22), name="split")
        .heal(at=20.0, name="split")
        .restart(at=22.0, node=7)
        .with_channel(GilbertElliottChannel(p_gb=0.05, p_bg=0.3, loss_bad=0.8))
    )


def schedule_per_neighbor(sim):
    def schedule_batch(entries):
        count = 0
        for delay, callback, args in entries:
            sim.schedule(delay, callback, *args)
            count += 1
        return count

    return schedule_batch


def run_scenario(kernel: str, batch_delivery: bool = True) -> tuple[dict, int, int, str]:
    registry.reset_all()
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
            faults=build_plan(),
            tx_queue_capacity=16,
            tx_queue_policy="tail-drop",
        )
    )
    sim = scenario.sim
    if not batch_delivery:
        sim.schedule_batch = schedule_per_neighbor(sim)
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(24, "bob")
    scenario.converge()
    scenario.phones["alice"].place_call("sip:bob@voicehoc.ch", duration=5.0)
    until = sim.now + 15.0
    if kernel == "heap":
        sim.run(until)
    else:
        while sim.now < until:
            sim.run(min(sim.now + CALENDAR_DAY, until))
    scenario.stop()
    assert scenario.trace is not None
    return (
        scenario.stats.summary(),
        sim.events_processed,
        sim.pending_events,
        scenario.trace.export_jsonl(),
    )


class TestKernelParity:
    def test_calendar_matches_heap_bit_for_bit(self):
        heap = run_scenario("heap")
        calendar = run_scenario("calendar")
        assert heap[1] == calendar[1]  # events processed: schedule identity
        assert heap[2] == calendar[2]  # pending events
        assert heap[0]["traffic"] == calendar[0]["traffic"]
        assert heap[0]["counters"] == calendar[0]["counters"]
        assert heap[0]["samples"] == calendar[0]["samples"]
        assert heap[3] == calendar[3]  # byte-identical trace export
        # The scenario exercised faults and shedding, not just happy paths.
        assert '"fault.node_crash"' in heap[3]
        assert '"fault.partition"' in heap[3]
        assert heap[0]["traffic"]["total"]["packets"] > 100

    def test_batched_delivery_matches_per_neighbor_schedule(self):
        batched = run_scenario("heap", batch_delivery=True)
        unbatched = run_scenario("heap", batch_delivery=False)
        assert batched == unbatched

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_same_seed_same_run(self, kernel):
        assert run_scenario(kernel) == run_scenario(kernel)
