"""Discovery-scheme comparison workloads (experiments E2 and A1).

Runs the same register-then-lookup workload over each user-location scheme
(SIPHoc MANET SLP vs the related-work baselines) and accounts the control
traffic each one puts on the air. The paper's argument: piggybacking adds
*no dedicated packets* — its cost rides on routing traffic that exists
anyway — while every baseline adds its own growing traffic class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import (
    DiscoveryBackend,
    FloodingSipBackend,
    ManetSlpBackend,
    MulticastSlpBackend,
    ProactiveHelloBackend,
    UserBinding,
)
from repro.experiments.tables import Table
from repro.netsim.energy import EnergyModel
from repro.netsim.medium import WirelessMedium
from repro.netsim.mobility import place_grid
from repro.netsim.node import Node
from repro.netsim.packet import manet_ip
from repro.netsim.simulator import Simulator
from repro.netsim.stats import Stats
from repro.routing.aodv import Aodv
from repro.routing.olsr import Olsr

SCHEMES = ("siphoc", "multicast-slp", "flooding-register", "proactive-hello")


@dataclass
class DiscoveryResult:
    scheme: str
    n_nodes: int
    lookups_attempted: int
    lookups_resolved: int
    mean_latency: float
    control_bytes: int
    control_packets: int
    discovery_bytes: int
    energy_joules: float = 0.0
    max_node_joules: float = 0.0

    @property
    def success_ratio(self) -> float:
        if self.lookups_attempted == 0:
            return 0.0
        return self.lookups_resolved / self.lookups_attempted


def _make_backend(scheme: str, node: Node, routing) -> DiscoveryBackend:
    if scheme == "siphoc":
        return ManetSlpBackend(node, routing)
    if scheme == "multicast-slp":
        return MulticastSlpBackend(node)
    if scheme == "flooding-register":
        return FloodingSipBackend(node)
    if scheme == "proactive-hello":
        return ProactiveHelloBackend(node)
    raise ValueError(f"unknown discovery scheme {scheme!r}")


def run_discovery_workload(
    scheme: str,
    n_nodes: int = 16,
    routing: str = "aodv",
    seed: int = 1,
    n_lookups: int = 10,
    warmup: float = 15.0,
    lookup_window: float = 20.0,
    spacing: float = 100.0,
    tx_range: float = 150.0,
) -> DiscoveryResult:
    """One workload run: every node registers a user, then random nodes
    look up random remote users; returns traffic + latency accounting."""
    sim = Simulator(seed=seed)
    stats = Stats()
    energy = EnergyModel()
    medium = WirelessMedium(sim, stats=stats, tx_range=tx_range, energy=energy)
    nodes: list[Node] = []
    backends: list[DiscoveryBackend] = []
    for index in range(n_nodes):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        daemon = Aodv(node) if routing == "aodv" else Olsr(node)
        daemon.start()
        backend = _make_backend(scheme, node, daemon)
        backend.start()
        nodes.append(node)
        backends.append(backend)
    place_grid(nodes, spacing)

    # Registration phase: each node announces one user, jittered start.
    for index, backend in enumerate(backends):
        sim.schedule(
            sim.rng.uniform(0.1, 2.0),
            backend.register_user,
            f"sip:user{index}@voicehoc.ch",
            nodes[index].ip,
            5060,
        )
    sim.run(warmup)

    # Lookup phase.
    results: list[tuple[float, UserBinding | None]] = []
    start_times: list[float] = []

    def do_lookup(backend: DiscoveryBackend, aor: str) -> None:
        started = sim.now
        start_times.append(started)
        backend.resolve(aor, lambda binding: results.append((sim.now - started, binding)))

    for _ in range(n_lookups):
        src = sim.rng.randrange(n_nodes)
        dst = sim.rng.randrange(n_nodes)
        while dst == src:
            dst = sim.rng.randrange(n_nodes)
        sim.schedule(
            sim.rng.uniform(0.5, lookup_window * 0.6),
            do_lookup,
            backends[src],
            f"sip:user{dst}@voicehoc.ch",
        )
    sim.run(warmup + lookup_window)

    resolved = [latency for latency, binding in results if binding is not None]
    control_classes = ("aodv", "olsr", "slp", "flooding-register", "proactive-hello")
    control_bytes = sum(stats.traffic_bytes(name) for name in control_classes)
    control_packets = sum(stats.traffic_packets(name) for name in control_classes)
    discovery_bytes = sum(
        stats.traffic_bytes(name)
        for name in ("slp", "flooding-register", "proactive-hello")
    )
    for backend in backends:
        backend.stop()
    return DiscoveryResult(
        scheme=scheme,
        n_nodes=n_nodes,
        lookups_attempted=n_lookups,
        lookups_resolved=len(resolved),
        mean_latency=sum(resolved) / len(resolved) if resolved else float("nan"),
        control_bytes=control_bytes,
        control_packets=control_packets,
        discovery_bytes=discovery_bytes,
        energy_joules=energy.total_joules(),
        max_node_joules=energy.max_node_joules(),
    )


def overhead_vs_nodes_table(
    node_counts: tuple[int, ...] = (9, 16, 25),
    schemes: tuple[str, ...] = SCHEMES,
    routing: str = "aodv",
    seed: int = 1,
    n_lookups: int = 8,
) -> Table:
    """Experiment E2: control overhead as the network grows."""
    table = Table(
        title=f"E2: control overhead vs node count ({routing})",
        columns=[
            "scheme",
            "nodes",
            "control_bytes",
            "discovery_bytes",
            "lookups_ok",
            "mean_latency_s",
        ],
    )
    for n_nodes in node_counts:
        for scheme in schemes:
            result = run_discovery_workload(
                scheme, n_nodes=n_nodes, routing=routing, seed=seed, n_lookups=n_lookups
            )
            table.add_row(
                scheme,
                n_nodes,
                result.control_bytes,
                result.discovery_bytes,
                f"{result.lookups_resolved}/{result.lookups_attempted}",
                result.mean_latency,
            )
    table.add_note(
        "discovery_bytes = dedicated discovery packets; SIPHoc's piggybacked"
        " payloads ride routing packets and add no dedicated traffic"
    )
    return table


def ablation_discovery_table(
    n_nodes: int = 16, routing: str = "aodv", seeds: tuple[int, ...] = (1, 2, 3)
) -> Table:
    """Experiment A1: same workload, all schemes, averaged over seeds."""
    table = Table(
        title=f"A1: discovery scheme ablation ({n_nodes} nodes, {routing})",
        columns=[
            "scheme",
            "success_ratio",
            "mean_latency_s",
            "control_bytes",
            "discovery_bytes",
            "energy_j",
            "hotspot_j",
        ],
    )
    for scheme in SCHEMES:
        runs = [
            run_discovery_workload(scheme, n_nodes=n_nodes, routing=routing, seed=seed)
            for seed in seeds
        ]
        ok = sum(r.success_ratio for r in runs) / len(runs)
        latencies = [r.mean_latency for r in runs if r.mean_latency == r.mean_latency]
        table.add_row(
            scheme,
            ok,
            sum(latencies) / len(latencies) if latencies else float("nan"),
            sum(r.control_bytes for r in runs) // len(runs),
            sum(r.discovery_bytes for r in runs) // len(runs),
            sum(r.energy_joules for r in runs) / len(runs),
            sum(r.max_node_joules for r in runs) / len(runs),
        )
    table.add_note(
        "energy: Feeney/Nilsson WaveLAN model, including broadcast receive"
        " and promiscuous discard costs; hotspot = most-drained node"
    )
    return table
