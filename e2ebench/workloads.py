"""The four seeded call workloads of the end-to-end benchmark.

Each workload builds a :class:`~repro.scenarios.ManetScenario` through the
public scenario API only (``ManetConfig``, ``repro.faults`` channels and the
phone/scenario calls). The simulator receives the seed only as
``ManetConfig.seed``; call pairs and arrival times come from the workload's
own ``random.Random(f"{name}:{seed}")``, so the same seed gives the same
inputs. None of the parity knobs (``kernel``, ``spatial_index``,
``batch_delivery``) is set: every workload runs on the defaults.

Every workload places at least 50 calls, so the 80th percentile of the
post-dial delay has ten samples beyond it. Inputs are shaped so that no
call fails on any seed and per-call results are comparable across seeds:
fixed hop distances, callees inside the caller's connected component,
fades kept off the signalling path. Arrivals are
scheduled in simulated time, so an open-loop generator is never late.

:func:`setup` functions build and warm a scenario (timed as ``setup_s``);
:attr:`Prepared.drive` places the calls and runs the simulation until every
call has ended (timed as ``run_s``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.faults.plan import FaultPlan
from repro.scenarios import ManetConfig, ManetScenario
from repro.sip.ua import CallState

DOMAIN = "voicehoc.ch"
#: Simulated seconds a run may spend past its schedule waiting for calls
#: to reach a final state.
FINAL_STATE_CAP = 120.0


@dataclass
class Prepared:
    """A built, warmed scenario and the closure that drives its calls."""

    scenario: ManetScenario
    drive: Callable[[], None]
    placed: int  # calls the drive places
    talk_s: float  # talk time of every call


def _aor(index: int) -> str:
    return f"sip:user{index}@{DOMAIN}"


def _add_phones(scenario: ManetScenario, indexes) -> None:
    for index in sorted(set(indexes)):
        scenario.add_phone(index, f"user{index}")


def _run_until_final(scenario: ManetScenario, until: float) -> None:
    """Run to ``until``, then on until every call record has a final state."""
    sim = scenario.sim
    sim.run(until)
    deadline = sim.now + FINAL_STATE_CAP
    while sim.now < deadline and any(not r.final_state for r in scenario.call_records()):
        sim.run(sim.now + 1.0)


def _grid_hops(a: int, b: int, side: int) -> int:
    """Hop distance on a grid whose diagonal neighbours are in range."""
    return max(abs(a % side - b % side), abs(a // side - b // side))


# -- city: reactive floods over a large graph -------------------------------------
def _component(positions: list[tuple[float, float]], start: int, reach: float) -> set[int]:
    """Nodes reachable from ``start`` over links no longer than ``reach``."""
    reach_sq = reach * reach
    seen = {start}
    frontier = [start]
    while frontier:
        x, y = positions[frontier.pop()]
        for index, (ox, oy) in enumerate(positions):
            if index not in seen and (ox - x) ** 2 + (oy - y) ** 2 <= reach_sq:
                seen.add(index)
                frontier.append(index)
    return seen


def setup_city(seed: int, smoke: bool = False) -> Prepared:
    """Static random AODV city, degree-10 area, calls 400-500 m apart.

    The graph is static: with node movement a reverse route can break
    between an SLP query and its reply, and the call then fails.
    """
    n_nodes, n_calls = (80, 10) if smoke else (160, 50)
    tx_range, degree = 150.0, 10.0
    min_dist, max_dist = 400.0, 500.0
    side = math.sqrt(n_nodes * math.pi * tx_range * tx_range / degree)
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=n_nodes,
            topology="random",
            routing="aodv",
            seed=seed,
            tx_range=tx_range,
            area=(side, side),
            connection_provider=False,
        )
    )
    gen = random.Random(f"city:{seed}")
    positions = [node.position for node in scenario.nodes]
    largest: set[int] = set()
    unseen = set(range(n_nodes))
    while unseen and len(largest) < len(unseen):
        component = _component(positions, min(unseen), tx_range)
        unseen -= component
        largest = max(largest, component, key=len)
    members = sorted(largest)
    callers = list(members)
    gen.shuffle(callers)
    used: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for caller in callers:
        if len(pairs) == n_calls:
            break
        if caller in used:
            continue
        cx, cy = positions[caller]
        candidates = [
            index
            for index in members
            if index != caller
            and index not in used
            and min_dist <= math.hypot(positions[index][0] - cx, positions[index][1] - cy)
            <= max_dist
        ]
        if candidates:
            callee = candidates[gen.randrange(len(candidates))]
            used.update((caller, callee))
            pairs.append((caller, callee))
    if len(pairs) < n_calls:
        raise RuntimeError(f"city seed {seed}: only {len(pairs)} of {n_calls} call pairs")
    _add_phones(scenario, [index for pair in pairs for index in pair])
    warmup, spacing, talk, drain = 5.0, 0.5, 2.0, 5.0
    scenario.start()
    scenario.converge(warmup)
    sim = scenario.sim
    start = sim.now

    def drive() -> None:
        for order, (caller, callee) in enumerate(pairs):
            sim.schedule_at(
                start + order * spacing,
                scenario.phones[f"user{caller}"].place_call,
                _aor(callee),
                talk,
            )
        _run_until_final(scenario, start + n_calls * spacing + talk + drain)

    return Prepared(scenario, drive, placed=n_calls, talk_s=talk)


# -- olsr_mesh: proactive piggybacking, closed-loop callers -----------------------
def setup_olsr_mesh(seed: int, smoke: bool = False) -> Prepared:
    """Static 7x7 OLSR grid, a phone on every node, four closed-loop clients."""
    side, clients, per_client = (4, 2, 5) if smoke else (7, 4, 15)
    hops = 3
    n_nodes = side * side
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=n_nodes,
            topology="grid",
            routing="olsr",
            seed=seed,
            spacing=90.0,
            tx_range=140.0,
        )
    )
    gen = random.Random(f"olsr_mesh:{seed}")
    order = list(range(n_nodes))
    gen.shuffle(order)
    # Each client owns a disjoint set of phones, so no phone is ever in two
    # calls at once; every pair is exactly ``hops`` grid steps apart.
    queues: list[list[tuple[int, int]]] = []
    for client in range(clients):
        own = order[client::clients]
        candidates = [(a, b) for a in own for b in own if _grid_hops(a, b, side) == hops]
        queues.append(
            [candidates[gen.randrange(len(candidates))] for _ in range(per_client)]
        )
    _add_phones(scenario, range(n_nodes))
    warmup, talk, gap = 15.0, 0.5, 0.5
    scenario.start()
    scenario.converge(warmup)
    sim = scenario.sim

    def place_next(queue: list[tuple[int, int]]) -> None:
        if not queue:
            return
        caller, callee = queue.pop(0)

        def on_state(call) -> None:
            if call.state in (CallState.TERMINATED, CallState.FAILED):
                sim.schedule(gap, place_next, queue)

        scenario.phones[f"user{caller}"].place_call(_aor(callee), talk, on_state=on_state)

    def drive() -> None:
        for queue in queues:
            place_next(queue)
        deadline = sim.now + FINAL_STATE_CAP * per_client
        while any(queues) and sim.now < deadline:
            sim.run(sim.now + 1.0)
        _run_until_final(scenario, sim.now + 2.0)

    return Prepared(scenario, drive, placed=clients * per_client, talk_s=talk)


# -- call_storm: SIP transaction/proxy load over a warm 3-hop chain ---------------
def setup_call_storm(seed: int, smoke: bool = False) -> Prepared:
    """10 calls/s from one caller to one callee over a static 3-hop chain."""
    rate, n_calls = (10.0, 50) if smoke else (10.0, 500)
    talk = 0.2
    scenario = ManetScenario(ManetConfig(n_nodes=4, topology="chain", routing="aodv", seed=seed))
    gen = random.Random(f"call_storm:{seed}")
    scenario.add_phone(0, "user0")
    scenario.add_phone(3, "user3")
    scenario.start()
    scenario.converge(3.0)
    sim = scenario.sim
    start = sim.now
    phone = scenario.phones["user0"]
    # One arrival uniformly inside each 1/rate slot: the rate is exact and
    # the seed still shapes the arrival pattern.
    times = [start + (k + gen.random()) / rate for k in range(n_calls)]

    def drive() -> None:
        for at in times:
            sim.schedule_at(at, phone.place_call, _aor(3), talk)
        _run_until_final(scenario, times[-1] + talk + 5.0)

    return Prepared(scenario, drive, placed=n_calls, talk_s=talk)


# -- media_fade: per-packet path through link fades -------------------------------
FADE_MEAN_GAP_S = 2.0  # mean time between fades of one link while media flows
FADE_MEAN_S = 0.05  # mean fade length (exponential, capped)
FADE_MAX_S = 0.3


def setup_media_fade(seed: int, smoke: bool = False) -> Prepared:
    """Two-hop calls on a fading AODV chain with adaptive playout and RED.

    Fades are scheduled link partitions (``repro.faults``) with exponential
    gaps and lengths, like a Gilbert-Elliott channel, but only while media
    flows: from 1 s after a call is placed until half a second before it
    hangs up. A channel that can also hit signalling fails calls, because
    the simulator's UAS does not retransmit a lost 2xx response.
    """
    segments, per_segment, talk = (2, 2, 2.0) if smoke else (6, 10, 4.0)
    warmup, gap = 3.0, 1.0
    start = warmup + 1.0
    gen = random.Random(f"media_fade:{seed}")
    pairs = [(3 * k, 3 * k + 2) for k in range(segments)]
    gen.shuffle(pairs)
    calls: list[tuple[float, int, int]] = []
    plan = FaultPlan()
    for slot, (caller, callee) in enumerate(pairs):
        for k in range(per_segment):
            at = start + slot * 0.25 + k * (talk + gap)
            calls.append((at, caller, callee))
            for a, b in ((caller, caller + 1), (caller + 1, callee)):
                fade_at = at + 1.0 + gen.expovariate(1.0 / FADE_MEAN_GAP_S)
                while True:
                    length = min(gen.expovariate(1.0 / FADE_MEAN_S), FADE_MAX_S)
                    if fade_at + length > at + talk:
                        break
                    name = f"fade-{a}-{b}-{len(plan)}"
                    plan.partition(fade_at, [a], [b], name=name).heal(fade_at + length, name)
                    fade_at += length + gen.expovariate(1.0 / FADE_MEAN_GAP_S)
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=3 * segments,
            topology="chain",
            routing="aodv",
            seed=seed,
            mac_retries=1,
            aodv_net_diameter=2,
            connection_provider=False,
            faults=plan,
            media_jitter_policy="adaptive",
            media_redundancy=2,
        )
    )
    _add_phones(scenario, [index for pair in pairs for index in pair])
    scenario.start()
    scenario.converge(warmup)
    sim = scenario.sim

    def drive() -> None:
        for at, caller, callee in calls:
            sim.schedule_at(at, scenario.phones[f"user{caller}"].place_call, _aor(callee), talk)
        _run_until_final(scenario, max(at for at, _, _ in calls) + talk + 5.0)

    return Prepared(scenario, drive, placed=len(calls), talk_s=talk)


WORKLOADS: dict[str, Callable[[int, bool], Prepared]] = {
    "city": setup_city,
    "olsr_mesh": setup_olsr_mesh,
    "call_storm": setup_call_storm,
    "media_fade": setup_media_fade,
}


# -- outcome --------------------------------------------------------------------------
def call_rows(scenario: ManetScenario) -> list[dict]:
    """Every call record (both directions) in canonical, JSON-ready form."""
    rows = []
    for record in scenario.call_records():
        quality = record.quality
        rows.append(
            {
                "direction": record.direction,
                "peer": record.peer,
                "placed": record.placed_at,
                "ringing": record.ringing_at,
                "established": record.established_at,
                "ended": record.ended_at,
                "final_state": record.final_state,
                "mos": quality.mos if quality is not None else None,
            }
        )
    return rows


def digest(scenario: ManetScenario, rows: list[dict]) -> str:
    """sha256 of the canonical JSON of the run's Stats plus its call rows."""
    payload = json.dumps(
        {"stats": scenario.stats.to_dict(), "calls": rows},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()
