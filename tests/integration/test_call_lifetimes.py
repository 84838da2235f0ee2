"""Integration: every object a SIP call creates dies when the call is done.

A call's transactions, timers, RTP session and call object must be freed
by reference counting once the call and its transactions end, and no SIP
transaction or timer may outlive the RFC 3261 timers that keep it. A short
call storm (the end-to-end ``call_storm`` workload in miniature: one phone
calling another over a warm 3-hop AODV chain) drives both checks. The
other end-to-end shapes, built in miniature here (a static random AODV
graph, an OLSR grid and a fading chain with adaptive playout and RFC 2198
redundancy), must leave no cyclic garbage either, and neither may the
SIPHoc proxy's upstream REGISTER through an Internet gateway.
"""

import gc
import math

import pytest

from repro.core import SipAccount
from repro.faults import FaultPlan
from repro.netsim.simulator import Simulator
from repro.scenarios import ManetConfig, ManetScenario
from repro.sip import SipRequest, SipTransport, TransactionLayer
from repro.sip.transaction import TIMER_B, TIMER_H, _Transaction
from tests.conftest import make_chain
from tests.sip.test_transaction import make_request

CALLS = 20
RATE = 10.0  # calls per second
TALK = 0.2  # seconds
DRAIN = 40.0  # longer than every transaction timer (Timers B, D, F, H, J, L)
WARMUP = 5.0  # seconds of convergence before a miniature shape's first call
SHAPE_TALK = 2.0  # talk time of every call in a miniature shape


def _warm_chain(seed: int) -> ManetScenario:
    scenario = ManetScenario(ManetConfig(n_nodes=4, topology="chain", routing="aodv", seed=seed))
    scenario.add_phone(0, "user0")
    scenario.add_phone(3, "user3")
    scenario.start()
    scenario.converge(3.0)
    return scenario


def _call_storm(scenario: ManetScenario) -> None:
    """Place the calls and run until every call record is final."""
    sim = scenario.sim
    phone = scenario.phones["user0"]
    start = sim.now
    for k in range(CALLS):
        sim.schedule_at(start + k / RATE, phone.place_call, "sip:user3@voicehoc.ch", TALK)
    sim.run(start + CALLS / RATE + TALK + 5.0)
    while any(not record.final_state for record in scenario.call_records()):
        sim.run(sim.now + 1.0)


def _transaction_layers(scenario: ManetScenario) -> list[TransactionLayer]:
    layers = [phone.ua.transactions for phone in scenario.phones.values()]
    for stack in scenario.stacks:
        layers.extend(leg.transactions for leg in stack.proxy.core.legs.values())
    return layers


def _pending_transaction_timers(sim: Simulator) -> int:
    # A heap entry is (time, seq, callback, args), or (time, seq, handle,
    # None) for an event with a handle; a cancelled handle has no callback.
    callbacks = (target.callback if args is None else target for _, _, target, args in sim._heap)
    return sum(isinstance(getattr(callback, "__self__", None), _Transaction) for callback in callbacks)


def test_call_storm_leaves_no_cyclic_garbage():
    scenario = _warm_chain(seed=1)
    gc.collect()
    gc.disable()
    try:
        _call_storm(scenario)
        # Drain the transactions too: a cycle through a transaction would
        # surface only once the transaction is gone.
        scenario.sim.run(scenario.sim.now + DRAIN)
        # Collect before re-enabling: the first allocation after enable()
        # would start an automatic collection and hide what it finds.
        freed = gc.collect()
    finally:
        gc.enable()
    records = scenario.call_records()
    assert sum(record.established_at is not None for record in records) == 2 * CALLS
    assert freed == 0
    scenario.stop()


def _city() -> tuple[ManetScenario, list[tuple[float, int, int]]]:
    """A static random AODV graph of degree ~10, calls 250-450 m apart."""
    n_nodes, tx_range = 30, 150.0
    side = math.sqrt(n_nodes * math.pi * tx_range * tx_range / 10.0)
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=n_nodes,
            topology="random",
            routing="aodv",
            seed=1,
            tx_range=tx_range,
            area=(side, side),
            connection_provider=False,
        )
    )
    positions = [node.position for node in scenario.nodes]
    used: set[int] = set()
    pairs = []
    for caller in range(n_nodes):
        if caller in used or len(pairs) == 4:
            continue
        for callee in range(n_nodes):
            if callee != caller and callee not in used and (
                250.0 <= math.dist(positions[caller], positions[callee]) <= 450.0
            ):
                used.update((caller, callee))
                pairs.append((caller, callee))
                break
    return scenario, [(0.5 * order, a, b) for order, (a, b) in enumerate(pairs)]


def _olsr_mesh() -> tuple[ManetScenario, list[tuple[float, int, int]]]:
    """A 4x4 OLSR grid (diagonal neighbours in range), calls 3 hops apart."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=16, topology="grid", routing="olsr", seed=1, spacing=90.0, tx_range=140.0
        )
    )
    return scenario, [(0.0, 0, 15), (0.5, 3, 12), (1.0, 1, 14)]


def _media_fade() -> tuple[ManetScenario, list[tuple[float, int, int]]]:
    """Two-hop calls on a chain whose links fade while media flows.

    Each link of a call fades for 0.1 s once its media is flowing, never
    during call setup or teardown, like e2ebench's media_fade.
    """
    calls = [(0.0, 0, 2), (0.25, 3, 5), (3.0, 0, 2), (3.25, 3, 5)]
    plan = FaultPlan()
    for start, caller, callee in calls:
        at = WARMUP + start
        for k, (a, b) in enumerate(((caller, caller + 1), (caller + 1, callee))):
            name = f"fade-{a}-{b}-{start}"
            plan.partition(at + 1.0 + 0.4 * k, [a], [b], name=name).heal(
                at + 1.1 + 0.4 * k, name
            )
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=6,
            topology="chain",
            routing="aodv",
            seed=1,
            mac_retries=1,
            aodv_net_diameter=2,
            connection_provider=False,
            faults=plan,
            media_jitter_policy="adaptive",
            media_redundancy=2,
        )
    )
    return scenario, calls


@pytest.mark.parametrize(
    "build", [_city, _olsr_mesh, _media_fade], ids=["city", "olsr_mesh", "media_fade"]
)
def test_shape_leaves_no_cyclic_garbage(build):
    scenario, calls = build()
    for _, caller, callee in calls:
        for index in (caller, callee):
            if f"user{index}" not in scenario.phones:
                scenario.add_phone(index, f"user{index}")
    scenario.start()
    scenario.converge(WARMUP)
    sim = scenario.sim
    gc.collect()
    gc.disable()
    try:
        for start, caller, callee in calls:
            sim.schedule_at(
                WARMUP + start,
                scenario.phones[f"user{caller}"].place_call,
                f"sip:user{callee}@voicehoc.ch",
                SHAPE_TALK,
            )
        sim.run(WARMUP + max(start for start, _, _ in calls) + SHAPE_TALK + 5.0)
        deadline = sim.now + 60.0
        while sim.now < deadline and any(not r.final_state for r in scenario.call_records()):
            sim.run(sim.now + 1.0)
        sim.run(sim.now + DRAIN)
        freed = gc.collect()
    finally:
        gc.enable()
    records = [r for r in scenario.call_records() if r.direction == "out"]
    assert len(records) == len(calls)
    assert all(record.established for record in records)
    assert freed == 0
    scenario.stop()


def test_upstream_registration_leaves_no_cyclic_garbage():
    """The SIPHoc proxy registers a phone with its provider through a gateway."""
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=3,
            topology="chain",
            routing="aodv",
            seed=1,
            internet_gateways=1,
            providers=("siphoc.ch",),
        )
    )
    scenario.start()
    gc.collect()
    gc.disable()
    try:
        scenario.add_phone(0, "alice", account=SipAccount(username="alice", domain="siphoc.ch"))
        scenario.sim.run(45.0)
        freed = gc.collect()
    finally:
        gc.enable()
    assert scenario.stacks[0].proxy.upstream_registrations == {"sip:alice@siphoc.ch": True}
    assert freed == 0
    scenario.stop()


def test_no_sip_transaction_or_timer_outlives_its_timers():
    scenario = _warm_chain(seed=1)
    _call_storm(scenario)
    layers = _transaction_layers(scenario)
    # Right after the storm the Timer D/H/J/K/L tails are still running,
    # so the check below has something to find.
    assert sum(layer.active_transactions for layer in layers) > 0
    assert _pending_transaction_timers(scenario.sim) > 0
    scenario.sim.run(scenario.sim.now + DRAIN)
    assert [layer.active_transactions for layer in layers] == [0] * len(layers)
    assert _pending_transaction_timers(scenario.sim) == 0
    scenario.stop()


def test_no_timer_fires_after_terminate(sim, medium):
    a, b = make_chain(sim, medium, 2, static_routes=True)
    layer_a = TransactionLayer(SipTransport(a, 5060), sim)
    layer_b = TransactionLayer(SipTransport(b, 5070), sim)
    at_b = []
    b.bind(5060, lambda data, src, sport: at_b.append(data))  # black hole
    at_a_raw = []
    a.bind(5080, lambda data, src, sport: at_a_raw.append(data))

    # Client INVITE: Timers A and B are armed, then the TU gives up at once.
    timeouts = []
    client = layer_a.send_request(
        make_request("INVITE", b.ip), (b.ip, 5060), lambda r: None,
        on_timeout=lambda: timeouts.append(sim.now),
    )
    assert _pending_transaction_timers(sim) == 2
    client.terminate()
    assert _pending_transaction_timers(sim) == 0

    # Server INVITE with a non-2xx final: Timers G and H are armed, then
    # the transaction is terminated before either fires.
    armed = []

    def on_request(request, txn, source):
        txn.send_response(request.create_response(486, to_tag="bt"))
        armed.append(_pending_transaction_timers(sim))
        txn.terminate()
        armed.append(_pending_transaction_timers(sim))

    layer_b.on_request = on_request
    request: SipRequest = make_request("INVITE", b.ip)
    request.headers.add("Via", f"SIP/2.0/UDP {a.ip}:5080;branch=z9hG4bK-raw")
    a.send_udp(b.ip, 5080, 5070, request.serialize())

    sim.run(max(TIMER_B, TIMER_H) + 5.0)
    assert armed == [2, 0]
    assert len(at_b) == 1  # the first INVITE only: Timer A never fired
    assert timeouts == []  # nor Timer B
    assert len(at_a_raw) == 1  # the 486 only: Timer G never fired
    assert layer_a.active_transactions == layer_b.active_transactions == 0
    assert _pending_transaction_timers(sim) == 0
