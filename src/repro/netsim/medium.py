"""Wireless medium model.

A unit-disk radio: every node within ``tx_range`` metres of a sender
receives its transmissions. Per-transmission delay is serialization time at
``bitrate`` plus a fixed MAC/propagation component plus a small random
per-receiver jitter (standing in for 802.11 backoff, and preventing
degenerate simultaneity in flooding protocols). Unicast frames get link-layer
retransmissions, broadcast frames do not — as in real 802.11.

Neighbor lookup is the inner loop of every transmitted frame. The medium
maintains a uniform-grid spatial index (cell size = ``tx_range``) plus a
per-node neighbor cache invalidated by a position epoch counter, making
:meth:`neighbors` O(degree) instead of O(N). Node position setters notify the
medium, so mobility models need no special wiring. Neighbors come back in
membership (insertion) order, which fixes the order of per-receiver RNG
draws and deliveries.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, Protocol

from repro.netsim.capture import CapturedFrame
from repro.netsim.energy import EnergyModel
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.netsim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.node import Node

SnifferFn = Callable[[CapturedFrame], None]
LinkFailureFn = Callable[[str, Packet], None]

_Cell = tuple[int, int]


class ChannelModel(Protocol):
    """Per-link loss decision, replacing the uniform ``loss_rate`` knob.

    Implementations (see :mod:`repro.faults.channel`) must draw randomness
    exclusively from the ``rng`` argument — the simulator's seeded RNG — so
    loss sequences are reproduced exactly by a same-seed rerun. One call is
    made per transmission attempt on the directed link (sender, receiver).
    """

    def should_drop(self, sender_ip: str, receiver_ip: str, rng: random.Random) -> bool: ...


class WirelessMedium:
    """Shared broadcast medium connecting all MANET nodes."""

    def __init__(
        self,
        sim: Simulator,
        stats: Stats | None = None,
        tx_range: float = 250.0,
        bitrate: float = 2_000_000.0,
        base_delay: float = 0.0005,
        jitter: float = 0.002,
        loss_rate: float = 0.0,
        mac_retries: int = 3,
        energy: EnergyModel | None = None,
        channel: ChannelModel | None = None,
    ) -> None:
        self.sim = sim
        self.stats = stats or Stats()
        self.energy = energy
        self.tx_range = tx_range
        self.bitrate = bitrate
        self.base_delay = base_delay
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.channel = channel
        self.mac_retries = mac_retries
        self._nodes: list["Node"] = []
        self._by_ip: dict[str, "Node"] = {}
        self._sniffers: list[SnifferFn] = []
        # Spatial index state. Keys are id(node): nodes are kept alive by
        # self._nodes while members, so ids cannot be recycled under us.
        self._cell_size = tx_range if tx_range > 0 else 1.0
        self._cells: dict[_Cell, list["Node"]] = {}
        self._node_cell: dict[int, _Cell] = {}
        self._order: dict[int, int] = {}  # membership order of each node
        self._order_seq = 0
        self._position_epoch = 0
        self._neighbor_cache: dict[int, tuple[int, list["Node"]]] = {}
        # Named partitions (fault injection): each blocks every link that
        # crosses between its two groups, in both directions.
        self._partitions: dict[str, tuple[frozenset[str], frozenset[str]]] = {}

    # -- membership ---------------------------------------------------------
    def add_node(self, node: "Node") -> None:
        if node.ip in self._by_ip:
            raise ValueError(f"duplicate MANET address {node.ip}")
        self._nodes.append(node)
        self._by_ip[node.ip] = node
        if node.medium is None:  # direct add_node callers still get move tracking
            node.medium = self
        self._order[id(node)] = self._order_seq
        self._order_seq += 1
        self._grid_insert(node)
        self._position_epoch += 1

    def remove_node(self, node: "Node") -> None:
        self._nodes.remove(node)
        del self._by_ip[node.ip]
        del self._order[id(node)]
        cell = self._node_cell.pop(id(node), None)
        if cell is not None:
            bucket = self._cells[cell]
            bucket.remove(node)
            if not bucket:
                del self._cells[cell]
        self._neighbor_cache.pop(id(node), None)
        self._position_epoch += 1

    @property
    def nodes(self) -> list["Node"]:
        return list(self._nodes)

    def node_by_ip(self, ip: str) -> "Node | None":
        return self._by_ip.get(ip)

    # -- topology -----------------------------------------------------------
    @property
    def position_epoch(self) -> int:
        """Bumped on every membership or position change; invalidates caches."""
        return self._position_epoch

    def distance(self, a: "Node", b: "Node") -> float:
        ax, ay = a.position
        bx, by = b.position
        return math.hypot(ax - bx, ay - by)

    def in_range(self, a: "Node", b: "Node") -> bool:
        return self.distance(a, b) <= self.tx_range

    def neighbors(self, node: "Node") -> list["Node"]:
        """All nodes within ``tx_range`` of ``node``, in membership order.

        The returned list is a cached internal object — treat it as read-only.
        """
        self._ensure_grid()
        key = id(node)
        cached = self._neighbor_cache.get(key)
        if cached is not None and cached[0] == self._position_epoch:
            return cached[1]
        result = self._grid_neighbors(node)
        if key in self._order:  # only cache member nodes (stable identity)
            self._neighbor_cache[key] = (self._position_epoch, result)
        return result

    # -- spatial index ------------------------------------------------------
    def _cell_of(self, position: tuple[float, float]) -> _Cell:
        size = self._cell_size
        return (math.floor(position[0] / size), math.floor(position[1] / size))

    def _grid_insert(self, node: "Node") -> None:
        cell = self._cell_of(node.position)
        self._cells.setdefault(cell, []).append(node)
        self._node_cell[id(node)] = cell

    def _ensure_grid(self) -> None:
        """Rebuild the grid if ``tx_range`` was reconfigured after creation."""
        desired = self.tx_range if self.tx_range > 0 else 1.0
        if desired == self._cell_size:
            return
        self._cell_size = desired
        self._cells = {}
        self._node_cell = {}
        for node in self._nodes:
            self._grid_insert(node)
        self._position_epoch += 1

    def _on_node_moved(self, node: "Node") -> None:
        """Notification from :class:`Node` position setters."""
        key = id(node)
        if key not in self._order:
            return
        self._position_epoch += 1
        cell = self._cell_of(node.position)
        old = self._node_cell[key]
        if old == cell:
            return
        bucket = self._cells[old]
        bucket.remove(node)
        if not bucket:
            del self._cells[old]
        self._cells.setdefault(cell, []).append(node)
        self._node_cell[key] = cell

    def _grid_neighbors(self, node: "Node") -> list["Node"]:
        cx, cy = self._cell_of(node.position)
        cells = self._cells
        in_range = self.in_range
        result: list["Node"] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = cells.get((cx + dx, cy + dy))
                if not bucket:
                    continue
                for other in bucket:
                    if other is not node and in_range(node, other):
                        result.append(other)
        # Membership order fixes the delivery (and thus RNG draw) order.
        order = self._order
        result.sort(key=lambda n: order[id(n)])
        return result

    # -- partitions (fault injection) ----------------------------------------
    def partition(self, name: str, group_a: frozenset[str], group_b: frozenset[str]) -> None:
        """Block every link crossing between ``group_a`` and ``group_b``.

        Partitioned links behave exactly like out-of-range ones: a unicast
        fails after a single attempt and one frame's airtime (then triggers
        link-failure feedback), broadcasts simply do not arrive.
        """
        self._partitions[name] = (frozenset(group_a), frozenset(group_b))

    def heal(self, name: str) -> None:
        """Remove a named partition. Unknown names are a no-op."""
        self._partitions.pop(name, None)

    @property
    def partition_names(self) -> list[str]:
        return sorted(self._partitions)

    def link_blocked(self, a_ip: str, b_ip: str) -> bool:
        """True if any active partition separates the two endpoints."""
        for group_a, group_b in self._partitions.values():
            if (a_ip in group_a and b_ip in group_b) or (
                a_ip in group_b and b_ip in group_a
            ):
                return True
        return False

    # -- capture ------------------------------------------------------------
    def add_sniffer(self, sniffer: SnifferFn) -> None:
        self._sniffers.append(sniffer)

    def remove_sniffer(self, sniffer: SnifferFn) -> None:
        self._sniffers.remove(sniffer)

    def _notify_sniffers(self, frame: CapturedFrame) -> None:
        for sniffer in self._sniffers:
            sniffer(frame)

    # -- transmission -------------------------------------------------------
    def _tx_time(self, packet: Packet) -> float:
        return packet.size * 8.0 / self.bitrate + self.base_delay

    def transmission_time(self, packet: Packet) -> float:
        """Airtime of one frame: serialization plus fixed per-frame overhead.

        Public so bounded TX queues (:class:`repro.netsim.node.InterfaceTxQueue`)
        can hold the interface busy for exactly one frame's airtime; excludes
        the random propagation jitter, which is drawn per delivery.
        """
        return self._tx_time(packet)

    def broadcast(self, sender: "Node", packet: Packet) -> None:
        """Transmit one link-layer broadcast frame from ``sender``.

        Each in-range neighbor independently receives (or loses) the frame.

        Draw order: neighbors are visited in membership order; for each
        non-partitioned neighbor one loss draw is made, and for each
        surviving neighbor one jitter draw — all from the simulator RNG,
        interleaved exactly as written here. The surviving receptions are
        then scheduled with one :meth:`Simulator.schedule_batch` call, which
        assigns sequence numbers in collection order and builds no event
        handles.
        """
        self.stats.record_transmission(packet.dport, packet.size)
        sender_ip = sender.ip
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "packet.tx",
                sender_ip,
                uid=packet.uid,
                dst=packet.dst,
                dport=packet.dport,
                size=packet.size,
                mode="broadcast",
            )
        energy = self.energy
        if energy is not None:
            energy.on_send(sender, packet)
        tx_time = self._tx_time(packet)
        # One pass draws loss + jitter for every neighbor; receptions are
        # collected and handed to the simulator in a single batched call.
        deliveries: list[tuple[float, Callable[..., None], tuple]] = []
        append = deliveries.append
        partitions = self._partitions
        channel = self.channel
        loss_rate = self.loss_rate
        rng = self.sim.rng
        rng_random = rng.random
        jitter = self.jitter
        cb_args = (packet, sender_ip)
        for neighbor in self.neighbors(sender):
            if partitions and self.link_blocked(sender_ip, neighbor.ip):
                if tracer is not None:
                    tracer.emit(
                        "packet.drop",
                        sender_ip,
                        uid=packet.uid,
                        cause="partition",
                        peer=neighbor.ip,
                    )
                continue
            if (
                channel.should_drop(sender_ip, neighbor.ip, rng)
                if channel is not None
                else loss_rate > 0 and rng_random() < loss_rate
            ):
                if tracer is not None:
                    tracer.emit(
                        "packet.drop",
                        sender_ip,
                        uid=packet.uid,
                        cause="loss",
                        peer=neighbor.ip,
                    )
                continue
            if energy is not None:
                energy.on_receive_broadcast(neighbor, packet)
            # jitter * random() is uniform(0, jitter) bit for bit: CPython
            # computes that as 0 + (jitter - 0) * random().
            append((tx_time + jitter * rng_random(), neighbor.receive_wireless, cb_args))
        if deliveries:
            self.sim.schedule_batch(deliveries)
        if self._sniffers:
            self._notify_sniffers(
                CapturedFrame(
                    time=self.sim.now,
                    sender_ip=sender.ip,
                    receiver_ip="*",
                    packet=packet,
                    delivered=bool(deliveries),
                )
            )

    def unicast(
        self,
        sender: "Node",
        next_hop_ip: str,
        packet: Packet,
        on_link_failure: LinkFailureFn | None = None,
    ) -> None:
        """Transmit a unicast frame to a specific link-layer neighbor.

        Only a reachable neighbor gets MAC retries: each lost attempt on a
        lossy link is retried, up to ``mac_retries`` times. An unreachable
        one (out of range, partitioned, crashed or with its radio down)
        sends no MAC ACK and the frame fails after one attempt and one
        airtime. Either failure fires the optional
        ``on_link_failure(next_hop_ip, packet)`` callback (the 802.11
        TX-failure feedback that reactive routing protocols rely on).

        The receiver lookup, reachability and range tests and the loss draws
        run inline: this is the per-hop cost of every forwarded frame.
        """
        sim = self.sim
        sender_ip = sender.ip
        self.stats.record_transmission(packet.dport, packet.size)
        tracer = sim.tracer
        if tracer is not None:
            tracer.emit(
                "packet.tx",
                sender_ip,
                uid=packet.uid,
                dst=packet.dst,
                dport=packet.dport,
                size=packet.size,
                mode="unicast",
                next_hop=next_hop_ip,
            )
        receiver = self._by_ip.get(next_hop_ip)
        blocked = bool(self._partitions) and self.link_blocked(sender_ip, next_hop_ip)
        reachable = False
        if receiver is not None and receiver.up and not blocked:
            wireless = receiver.wireless
            if wireless is None or wireless.up:
                ax, ay = sender.position
                bx, by = receiver.position
                reachable = math.hypot(ax - bx, ay - by) <= self.tx_range
        delivered = False
        attempts = 1
        if reachable:
            rng = sim.rng
            channel = self.channel
            loss_rate = self.loss_rate
            for attempt in range(self.mac_retries + 1):
                attempts = attempt + 1
                if channel is not None:
                    lost = channel.should_drop(sender_ip, next_hop_ip, rng)
                else:
                    lost = loss_rate > 0 and rng.random() < loss_rate
                if not lost:
                    delivered = True
                    break
        tx_time = self._tx_time(packet)
        energy = self.energy
        if energy is not None:
            energy.on_send(sender, packet, attempts=attempts)
            # One cached neighbor-list lookup covers receiver and bystanders.
            for neighbor in self.neighbors(sender):
                if neighbor is receiver:
                    if delivered:
                        energy.on_receive(neighbor, packet)
                else:
                    # Promiscuous overhear-and-discard cost for bystanders.
                    energy.on_discard(neighbor, packet)
        if self._sniffers:
            self._notify_sniffers(
                CapturedFrame(
                    time=sim.now,
                    sender_ip=sender_ip,
                    receiver_ip=next_hop_ip,
                    packet=packet,
                    delivered=delivered,
                )
            )
        if not delivered:
            self.stats.increment("medium.unicast_failures")
            if tracer is not None:
                if blocked:
                    cause = "partition"
                elif not reachable:
                    cause = "unreachable"
                else:
                    cause = "retries_exhausted"
                tracer.emit(
                    "packet.drop",
                    sender_ip,
                    uid=packet.uid,
                    cause=cause,
                    peer=next_hop_ip,
                    attempts=attempts,
                )
            if on_link_failure is not None:
                # Failure is detected after the last attempt's airtime.
                sim.schedule(attempts * tx_time, on_link_failure, next_hop_ip, packet)
            return
        # jitter * random() is uniform(0, jitter) bit for bit (see broadcast).
        delay = attempts * tx_time + self.jitter * sim.rng.random()
        assert receiver is not None
        # A delivery needs no cancellation handle (see Simulator.schedule_batch).
        sim.schedule_batch(((delay, receiver.receive_wireless, (packet, sender_ip)),))
