"""Per-node radio energy accounting.

Implements the linear per-packet cost model of Feeney & Nilsson
("Investigating the energy consumption of a wireless network interface in
an ad hoc networking environment", INFOCOM 2001): every operation costs
``m * size + b`` microjoules, with separate coefficients for sending,
receiving addressed traffic, and discarding overheard traffic. Broadcast
receptions are billed to every node in range — the hidden cost that makes
flooding-based discovery schemes expensive on battery-powered handhelds
like the paper's iPAQs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.node import Node
    from repro.netsim.packet import Packet


@dataclass(frozen=True)
class EnergyCoefficients:
    """Linear cost model: cost_uJ = m * size_bytes + b."""

    send_m: float = 1.9
    send_b: float = 454.0
    recv_m: float = 0.5
    recv_b: float = 356.0
    recv_broadcast_m: float = 0.5
    recv_broadcast_b: float = 56.0
    discard_m: float = 0.11  # promiscuous overhear of unicast for others
    discard_b: float = 70.0


#: Feeney & Nilsson's measured coefficients for a 2.4 GHz WaveLAN card.
WAVELAN_2MBPS = EnergyCoefficients()


class EnergyModel:
    """Tracks microjoules spent per node on radio operations."""

    def __init__(self, coefficients: EnergyCoefficients | None = None) -> None:
        self.coefficients = coefficients or WAVELAN_2MBPS
        self._spent_uj: dict[str, float] = defaultdict(float)
        self.total_transmissions = 0

    # -- billing (called by the medium) ---------------------------------------
    def on_send(self, node: "Node", packet: "Packet", attempts: int = 1) -> None:
        c = self.coefficients
        self._spent_uj[node.ip] += attempts * (c.send_m * packet.size + c.send_b)
        self.total_transmissions += attempts

    def on_receive(self, node: "Node", packet: "Packet") -> None:
        c = self.coefficients
        self._spent_uj[node.ip] += c.recv_m * packet.size + c.recv_b

    def on_receive_broadcast(self, node: "Node", packet: "Packet") -> None:
        c = self.coefficients
        self._spent_uj[node.ip] += c.recv_broadcast_m * packet.size + c.recv_broadcast_b

    def on_discard(self, node: "Node", packet: "Packet") -> None:
        c = self.coefficients
        self._spent_uj[node.ip] += c.discard_m * packet.size + c.discard_b

    # -- reporting --------------------------------------------------------------
    def spent_uj(self, node_ip: str) -> float:
        return self._spent_uj[node_ip]

    def total_joules(self) -> float:
        return sum(self._spent_uj.values()) / 1e6

    def max_node_joules(self) -> float:
        return max(self._spent_uj.values(), default=0.0) / 1e6

    def per_node_joules(self) -> dict[str, float]:
        return {ip: uj / 1e6 for ip, uj in self._spent_uj.items()}
