"""Integration: every object a SIP call creates dies when the call is done.

A call's transactions, timers, RTP session and call object must be freed
by reference counting once the call and its transactions end, and no SIP
transaction or timer may outlive the RFC 3261 timers that keep it. A short
call storm (the end-to-end ``call_storm`` workload in miniature: one phone
calling another over a warm 3-hop AODV chain) drives both checks. The
SIPHoc proxy's upstream REGISTER through an Internet gateway must leave no
cyclic garbage either.
"""

import gc

from repro.core import SipAccount
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
