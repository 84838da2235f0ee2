"""Duplicate-suppression tables hold one hold time of keys, not a whole run.

A 4x4 OLSR grid, shaped like e2ebench's olsr_mesh workload at smoke size,
places calls, then idles for longer than the longest hold while HELLOs,
TCs and advert refreshes keep flowing. Every OLSR duplicate set and every SLP
plugin table must then span less than one hold time: its oldest and
newest expiries lie less than a hold apart.
"""

from repro.core.handlers import RoutingHandler
from repro.routing import Olsr
from repro.scenarios import ManetConfig, ManetScenario

SIDE = 4


def _spans(table) -> float:
    expiries = table._expiry.values()
    return max(expiries) - min(expiries)


def test_tables_span_less_than_one_hold_after_an_idle_drain():
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=SIDE * SIDE,
            topology="grid",
            routing="olsr",
            seed=1,
            spacing=90.0,
            tx_range=140.0,
        )
    )
    for index in range(SIDE * SIDE):
        scenario.add_phone(index, f"user{index}")
    scenario.start()
    scenario.converge(15.0)
    for caller, callee in ((0, 15), (3, 12), (5, 10)):
        record = scenario.call_and_wait(
            f"user{caller}", f"sip:user{callee}@voicehoc.ch", duration=0.5
        )
        assert record.established
    sim = scenario.sim
    longest_hold = max(Olsr.DUP_HOLD_TIME, RoutingHandler.MESSAGE_HOLD_TIME)
    sim.run(sim.now + longest_hold + 5.0)
    tables = []
    for stack in scenario.stacks:
        tables.append(("olsr", stack.node.ip, stack.routing._duplicates))
        tables.append(("slp", stack.node.ip, stack.manet_slp.handler._seen))
    for kind, ip, table in tables:
        assert len(table) > 0, (kind, ip)
        assert _spans(table) < table.hold, (kind, ip, _spans(table), len(table))
    scenario.stop()
