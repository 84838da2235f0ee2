"""Seeded determinism regression: optimized vs. brute-force fast paths.

The spatial neighbor index, its neighbor cache and event-queue compaction
are pure performance work — a seeded scenario must produce *bit-identical*
measurements with them bypassed. This runs a mid-size (25-node) mobile
scenario with SIP call traffic both ways and compares the complete Stats
output: per-protocol packet counts, byte totals, counters and samples.

The brute-force path is built from outside: the medium's ``neighbors`` is
shadowed on the instance by a linear scan over every member in membership
order, and the simulator's compaction floor is raised so tombstones are
never swept.
"""

from repro.scenarios import ManetConfig, ManetScenario


def use_brute_force_paths(scenario: ManetScenario) -> None:
    medium = scenario.medium

    def scan_neighbors(node):
        return [
            other for other in medium.nodes if other is not node and medium.in_range(node, other)
        ]

    medium.neighbors = scan_neighbors
    scenario.sim.COMPACT_MIN = 1 << 62


def run_scenario(brute_force: bool = False) -> tuple[dict, int, int]:
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=25,
            topology="random",
            routing="aodv",
            seed=2026,
            tx_range=250.0,
            area=(700.0, 700.0),
            mobility=True,
        )
    )
    if brute_force:
        use_brute_force_paths(scenario)
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(24, "bob")
    scenario.converge()
    scenario.phones["alice"].place_call("sip:bob@voicehoc.ch", duration=5.0)
    scenario.sim.run(scenario.sim.now + 15.0)
    scenario.stop()
    if brute_force:
        assert scenario.sim.compactions == 0
    return (
        scenario.stats.summary(),
        scenario.sim.events_processed,
        scenario.sim.pending_events,
    )


def test_optimized_and_brute_force_paths_are_bit_identical():
    fast_summary, fast_events, fast_pending = run_scenario(brute_force=False)
    slow_summary, slow_events, slow_pending = run_scenario(brute_force=True)
    assert fast_events == slow_events
    assert fast_pending == slow_pending
    assert fast_summary["traffic"] == slow_summary["traffic"]
    assert fast_summary["counters"] == slow_summary["counters"]
    assert fast_summary["samples"] == slow_summary["samples"]
    # The scenario actually exercised the medium: routing + SIP traffic flowed.
    assert fast_summary["traffic"]["total"]["packets"] > 100
    assert fast_summary["traffic"]["aodv"]["packets"] > 0
    assert fast_summary["traffic"]["sip"]["packets"] > 0


def test_same_seed_same_stats_with_index_enabled():
    first = run_scenario()
    second = run_scenario()
    assert first == second
