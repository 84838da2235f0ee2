"""Routing protocol base classes and the route table.

Both AODV and OLSR implement the :class:`RoutingProtocol` interface, which
the node's IP layer calls for every MANET-destined packet. The interface is
also what the SIPHoc routing-handler plugins introspect for hop counts and
convergence measurements.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

from repro.netsim.node import Node
from repro.netsim.packet import Packet


@dataclass
class Route:
    """One route-table entry.

    AODV refreshes its entries in place, so read an entry within the event
    that looked it up rather than keeping it.
    """

    destination: str
    next_hop: str
    hop_count: int
    seq_no: int = 0
    expires_at: float = math.inf
    valid: bool = True
    precursors: set[str] = field(default_factory=set)

    def is_usable(self, now: float) -> bool:
        return self.valid and now < self.expires_at


class RouteTable:
    """Destination-indexed route entries with expiry."""

    def __init__(self) -> None:
        self._routes: dict[str, Route] = {}
        #: ``get(destination)``: the entry regardless of validity, or None.
        #: The dict's own method, bound once: it runs on every routing packet.
        self.get = self._routes.get

    def lookup(self, destination: str, now: float) -> Route | None:
        """A *usable* route to ``destination``, or None."""
        route = self._routes.get(destination)
        if route is not None and route.is_usable(now):
            return route
        return None

    def upsert(self, route: Route) -> Route:
        self._routes[route.destination] = route
        return route

    def invalidate(self, destination: str) -> Route | None:
        route = self._routes.get(destination)
        if route is not None:
            route.valid = False
        return route

    def remove(self, destination: str) -> None:
        self._routes.pop(destination, None)

    def clear(self) -> None:
        self._routes.clear()

    def destinations(self) -> list[str]:
        return list(self._routes)

    def usable_routes(self, now: float) -> list[Route]:
        return [route for route in self._routes.values() if route.is_usable(now)]

    def routes_via(self, next_hop: str, now: float) -> list[Route]:
        return [
            route
            for route in self._routes.values()
            if route.next_hop == next_hop and route.is_usable(now)
        ]

    def __len__(self) -> int:
        return len(self._routes)


class RoutingProtocol(abc.ABC):
    """Common machinery for MANET routing daemons.

    Subclasses bind their IANA UDP port on construction and implement
    :meth:`dispatch` (called by the node's IP layer) plus protocol timers.
    """

    name: str = "routing"
    port: int = 0

    def __init__(self, node: Node) -> None:
        self.node = node
        self.sim = node.sim
        self.table = RouteTable()
        self._socket = node.bind(self.port, self._on_datagram)
        self._started = False
        node.set_router(self)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "RoutingProtocol":
        if not self._started:
            self._started = True
            self._on_start()
        return self

    def stop(self) -> None:
        """Stop timers and release the control socket (terminal operation)."""
        if self._started:
            self._started = False
            self._on_stop()
        self._socket.close()

    @property
    def started(self) -> bool:
        return self._started

    def _on_start(self) -> None:
        """Subclass hook: start periodic timers."""

    def _on_stop(self) -> None:
        """Subclass hook: stop periodic timers."""

    # -- interface used by the IP layer and by SIPHoc ------------------------
    @abc.abstractmethod
    def dispatch(self, packet: Packet) -> None:
        """Deliver, buffer, or drop a unicast packet for a MANET destination."""

    @abc.abstractmethod
    def _on_datagram(self, data: bytes, src_ip: str, sport: int) -> None:
        """Handle a received routing-control datagram."""

    @property
    def route_count(self) -> int:
        """Route-table entries, including expired-but-unpurged (metrics gauge)."""
        return len(self.table)

    def route_to(self, destination: str) -> Route | None:
        """A currently usable route, or None (does not trigger discovery)."""
        return self.table.lookup(destination, self.sim.now)

    def hop_count_to(self, destination: str) -> int | None:
        route = self.route_to(destination)
        return route.hop_count if route is not None else None

    def send_control(self, dst_ip: str, data: bytes, ttl: int = 1) -> None:
        """Transmit a routing-control datagram (runs through netfilter hooks)."""
        self.node.send_udp(dst_ip, self.port, self.port, data, ttl=ttl)
