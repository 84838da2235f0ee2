"""Call-level experiments: setup delay, scalability, voice quality.

E1 (setup delay vs hop count, both routing protocols), E5 (scalability
with node count and mobility — the paper's stated future work), E6 (MOS
vs hops and loss), F3 (the Figure 3 call-flow record) and F5 (the
Figure 5 capture of the call's route reply).
"""

from __future__ import annotations

import math

from repro.analyzer import dissect_frame, render_frame
from repro.core.stack import SiphocStack
from repro.experiments.tables import Table
from repro.netsim import (
    Node,
    PacketCapture,
    Simulator,
    Stats,
    WirelessMedium,
    manet_ip,
    place_chain,
)
from repro.routing.aodv import Aodv
from repro.scenarios import ManetConfig, ManetScenario, build_chain_call_scenario


def call_flow_table(routing: str = "aodv", seed: int = 3) -> Table:
    """F3: the eight-step call flow on a 2-hop MANET, with timings."""
    scenario = build_chain_call_scenario(hops=2, routing=routing, seed=seed)
    scenario.converge()
    sim = scenario.sim
    t_register = sim.now
    alice = scenario.phones["alice"]
    bob = scenario.phones["bob"]
    table = Table(
        title=f"F3: call flow steps ({routing}, 2 hops)",
        columns=["step", "event", "ok", "at_s"],
    )
    table.add_row(1, "alice registers with local proxy", alice.registered, t_register)
    table.add_row(
        2,
        "proxy advertises contact via MANET SLP",
        bool(scenario.stacks[0].manet_slp.local_services()),
        t_register,
    )
    table.add_row(3, "bob registers with local proxy", bob.registered, t_register)
    table.add_row(
        4,
        "bob's proxy advertises contact via MANET SLP",
        bool(scenario.stacks[2].manet_slp.local_services()),
        t_register,
    )
    record = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=5.0)
    table.add_row(5, "INVITE routed through local proxy", True, record.placed_at)
    table.add_row(
        6,
        "proxy consults MANET SLP for callee",
        scenario.nodes[0].stats.count("siphoc.slp_lookups") > 0,
        record.placed_at,
    )
    table.add_row(
        7,
        "request forwarded to responsible proxy",
        scenario.nodes[0].stats.count("siphoc.routed_in_manet") > 0,
        record.placed_at,
    )
    table.add_row(
        8,
        "remote proxy delivers INVITE; phone rings and answers",
        record.established,
        record.established_at if record.established_at is not None else float("nan"),
    )
    if record.setup_delay is not None:
        table.add_note(f"session setup delay: {record.setup_delay * 1000:.0f} ms")
    scenario.stop()
    return table


def figure5_capture() -> PacketCapture:
    """Every frame of the Figure 5 scenario, captured promiscuously.

    Alice calls bob across a 2-hop AODV chain (seed 5, nodes 100 m apart);
    her proxy's SLP lookup rides a route request, and bob's node answers
    with a route reply carrying his binding.
    """
    sim = Simulator(seed=5)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
    capture = PacketCapture()
    medium.add_sniffer(capture.on_frame)
    stacks = []
    for index in range(3):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        stacks.append(
            SiphocStack(node, routing="aodv", run_connection_provider=False).start()
        )
    place_chain([stack.node for stack in stacks], 100.0)
    alice = stacks[0].add_phone(username="alice")
    stacks[2].add_phone(username="bob")
    sim.run(1.0)
    alice.place_call("sip:bob@voicehoc.ch", duration=2.0)
    sim.run(8.0)
    return capture


def capture_figure5() -> str | None:
    """F5: the first captured AODV RREP that carries the callee's SIP contact.

    Returns that frame's dissection under a title, numbered among the
    AODV frames of :func:`figure5_capture`, or ``None`` when no such frame
    was captured.
    """
    frames = figure5_capture().filter(dport=Aodv.port)
    for number, frame in enumerate(frames, start=1):
        aodv = dissect_frame(frame, number).find("Ad hoc On-demand")
        if aodv is not None and any("SLP Reply" in child.name for child in aodv.children):
            title = "F5: AODV route reply carrying a SIP contact (Figure 5)"
            return f"{title}\n{'=' * len(title)}\n{render_frame(frame, number)}"
    return None


def setup_delay_table(
    hop_counts: tuple[int, ...] = (1, 2, 4, 6, 8),
    routings: tuple[str, ...] = ("aodv", "olsr"),
    seeds: tuple[int, ...] = (1, 2, 3),
) -> Table:
    """E1: session setup delay vs hop count, AODV vs OLSR."""
    table = Table(
        title="E1: session setup delay vs hop count",
        columns=["routing", "hops", "success", "mean_setup_s", "min_s", "max_s"],
    )
    for routing in routings:
        for hops in hop_counts:
            delays = []
            attempts = 0
            for seed in seeds:
                scenario = build_chain_call_scenario(hops=hops, routing=routing, seed=seed)
                scenario.converge()
                record = scenario.call_and_wait(
                    "alice", "sip:bob@voicehoc.ch", duration=2.0
                )
                attempts += 1
                # Post-dial delay (to ringback) excludes the callee's
                # configured pick-up time; this is the paper's setup metric.
                if record.post_dial_delay is not None:
                    delays.append(record.post_dial_delay)
                scenario.stop()
            table.add_row(
                routing,
                hops,
                f"{len(delays)}/{attempts}",
                sum(delays) / len(delays) if delays else float("nan"),
                min(delays) if delays else float("nan"),
                max(delays) if delays else float("nan"),
            )
    table.add_note(
        "AODV pays one in-band lookup/route discovery; OLSR resolves from"
        " the proactively filled SLP cache"
    )
    return table


def scalability_table(
    node_counts: tuple[int, ...] = (10, 20, 30),
    routing: str = "aodv",
    seeds: tuple[int, ...] = (1, 2),
    calls_per_run: int = 6,
    mobility: bool = False,
) -> Table:
    """E5: call success and setup delay as the MANET grows (future work)."""
    table = Table(
        title=f"E5: scalability ({routing}{', random waypoint' if mobility else ''})",
        columns=["nodes", "calls", "established", "success_ratio", "mean_setup_s"],
    )
    for n_nodes in node_counts:
        established = 0
        attempted = 0
        delays: list[float] = []
        for seed in seeds:
            side = max(2, math.ceil(math.sqrt(n_nodes)))
            scenario = ManetScenario(
                ManetConfig(
                    n_nodes=n_nodes,
                    topology="grid",
                    routing=routing,
                    seed=seed,
                    spacing=90.0,
                    tx_range=140.0,
                    mobility=mobility,
                    area=(side * 90.0, side * 90.0),
                )
            )
            scenario.start()
            for index in range(n_nodes):
                scenario.add_phone(index, f"user{index}")
            scenario.converge(15.0 if routing == "olsr" else 5.0)
            for call_index in range(calls_per_run):
                src = scenario.sim.rng.randrange(n_nodes)
                dst = scenario.sim.rng.randrange(n_nodes)
                while dst == src:
                    dst = scenario.sim.rng.randrange(n_nodes)
                record = scenario.call_and_wait(
                    f"user{src}", f"sip:user{dst}@voicehoc.ch", duration=3.0
                )
                attempted += 1
                if record.established:
                    established += 1
                    if record.setup_delay is not None:
                        delays.append(record.setup_delay)
            scenario.stop()
        table.add_row(
            n_nodes,
            attempted,
            established,
            established / attempted if attempted else 0.0,
            sum(delays) / len(delays) if delays else float("nan"),
        )
    return table


def voice_quality_table(
    hop_counts: tuple[int, ...] = (1, 2, 4, 6),
    loss_rates: tuple[float, ...] = (0.0, 0.05, 0.15),
    routing: str = "aodv",
    seed: int = 2,
    talk_time: float = 15.0,
    mac_retries: int = 1,
) -> Table:
    """E6: E-model MOS of a call vs path length and link loss.

    ``mac_retries`` defaults to 1 here (vs the simulator's default 3): a
    heavily loaded 802.11 channel cannot always hide frame loss behind
    ARQ, and the experiment's purpose is to expose the loss axis.
    """
    table = Table(
        title=f"E6: voice quality (MOS) vs hops and loss ({routing})",
        columns=["hops", "link_loss", "established", "mos", "delay_ms", "eff_loss_pct"],
    )
    for hops in hop_counts:
        for loss in loss_rates:
            scenario = build_chain_call_scenario(
                hops=hops, routing=routing, seed=seed, loss_rate=loss,
                mac_retries=mac_retries,
            )
            scenario.converge()
            record = scenario.call_and_wait(
                "alice", "sip:bob@voicehoc.ch", duration=talk_time
            )
            quality = record.quality
            table.add_row(
                hops,
                loss,
                record.established,
                quality.mos if quality else float("nan"),
                quality.mean_delay * 1000 if quality else float("nan"),
                quality.effective_loss_ratio * 100 if quality else float("nan"),
            )
            scenario.stop()
    table.add_note("MOS >= 3.6 is the usual 'users satisfied' threshold")
    return table
