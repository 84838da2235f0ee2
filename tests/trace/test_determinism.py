"""Tracing determinism: byte-identical exports, no observer effect.

Traces exist to debug divergence, so they must never cause it. Two seeded
runs must export byte-identical JSONL, and turning tracing on must not
change what the simulation itself does (no extra scheduled events, no RNG
draws — the Stats output stays bit-identical to an untraced run).

Protocol identifiers (Call-ID, tags, Via branch, packet uid, ...) come from
streams each :class:`~repro.netsim.simulator.Simulator` owns, so two runs
live in one process at once still export the same bytes; the
``traced_chain_call`` gate pins this workload's export across fresh
interpreters (``tests/netsim/test_golden.py``).
"""

from repro.scenarios import build_chain_call_scenario
from repro.sip.ua import CallState

#: Width of each slice when two scenarios advance in turn.
SLICE = 0.25


def run_traced_call(tracing: bool = True):
    scenario = build_chain_call_scenario(hops=2, routing="aodv", seed=11, tracing=tracing)
    scenario.converge()
    record = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=2.0)
    assert record.established
    scenario.stop()
    return scenario


def _advance_in_turn(scenarios, until: float) -> None:
    """Run every scenario to ``until``, one ``SLICE`` of each in turn."""
    now = scenarios[0].sim.now
    while now < until:
        now = min(until, now + SLICE)
        for scenario in scenarios:
            scenario.sim.run(now)


def test_same_seed_exports_byte_identical_jsonl():
    # Both runs exist before either starts and advance interleaved: a
    # process-wide identifier stream would hand them alternate Call-IDs,
    # branches and packet uids, and their exports would differ.
    scenarios = [
        build_chain_call_scenario(hops=2, routing="aodv", seed=11, tracing=True)
        for _ in range(2)
    ]
    _advance_in_turn(scenarios, 3.0)
    calls = [
        scenario.phones["alice"].place_call("sip:bob@voicehoc.ch", duration=2.0)
        for scenario in scenarios
    ]
    done = (CallState.TERMINATED, CallState.FAILED)
    while not all(call.state in done for call in calls) and scenarios[0].sim.now < 40.0:
        _advance_in_turn(scenarios, scenarios[0].sim.now + SLICE)
    for scenario in scenarios:
        scenario.stop()
    assert all(scenario.phones["alice"].history[-1].established for scenario in scenarios)
    first, second = (scenario.trace.export_jsonl() for scenario in scenarios)
    assert first  # the trace is non-trivial...
    assert first == second  # ...and reproduced byte for byte


def test_tracing_has_no_observer_effect():
    traced = run_traced_call(tracing=True)
    untraced = run_traced_call(tracing=False)
    assert untraced.trace is None
    assert traced.stats.summary() == untraced.stats.summary()
    assert traced.sim.events_processed == untraced.sim.events_processed


def test_trace_covers_the_whole_stack():
    scenario = run_traced_call()
    categories = {event.category for event in scenario.trace}
    assert {"packet", "aodv", "slp", "sip"} <= categories
    # timestamps are simulation time, monotonically non-decreasing with seq
    events = scenario.trace.events
    assert all(a.t <= b.t for a, b in zip(events, events[1:]))
    assert [event.seq for event in events] == list(range(1, len(events) + 1))
