"""Network node: IP forwarding, UDP transport, netfilter hooks, interfaces.

A node mirrors the parts of a Linux host that SIPHoc relies on: a wireless
interface on the MANET, optional wired attachment to the Internet cloud,
optional tunnel interface (installed by the Connection Provider), a small
policy routing table (MANET subnet via the ad hoc routing daemon, default
route via wired or tunnel), a UDP socket table and netfilter-style hook
chains for packet interception.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Protocol

from repro.errors import PortInUseError
from repro.netsim.capture import Chain, NetfilterHooks
from repro.netsim.packet import (
    BROADCAST,
    DEFAULT_TTL,
    Datagram,
    Packet,
    is_manet_address,
)
from repro.netsim.simulator import Simulator
from repro.netsim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.medium import WirelessMedium

DatagramHandler = Callable[[bytes, str, int], None]
GatewaySendFn = Callable[[Packet], None]

EPHEMERAL_PORT_BASE = 49152

# Read per packet: on Python 3.11 an enum member load calls EnumType.__getattr__.
_INPUT = Chain.INPUT
_OUTPUT = Chain.OUTPUT


class Router(Protocol):
    """Interface the IP layer expects from a MANET routing protocol.

    ``dispatch`` takes full responsibility for the packet: deliver it over
    the next hop, buffer it pending route discovery, or drop it.
    """

    def dispatch(self, packet: Packet) -> None: ...


class UdpSocket:
    """A bound UDP socket on a node.

    A socket is closed once it has no handler. Closing it (or crashing its
    node) drops the handler: the handler is usually a bound method of the
    socket's owner, which holds the socket, and a closed socket that kept
    it would leave the pair to the cyclic collector.
    """

    def __init__(self, node: "Node", port: int, handler: DatagramHandler) -> None:
        self.node = node
        self.port = port
        self.handler: DatagramHandler | None = handler

    @property
    def closed(self) -> bool:
        return self.handler is None

    def send(self, dst_ip: str, dport: int, data: bytes, ttl: int = DEFAULT_TTL) -> None:
        if self.handler is None:
            raise OSError(f"socket on port {self.port} is closed")
        self.node.send_udp(dst_ip, self.port, dport, data, ttl=ttl)

    def close(self) -> None:
        if self.handler is not None:
            self.handler = None
            self.node._release_port(self.port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UdpSocket({self.node.ip}:{self.port})"


class _DefaultRoute:
    __slots__ = ("priority", "name", "send")

    def __init__(self, priority: int, name: str, send: GatewaySendFn) -> None:
        self.priority = priority
        self.name = name
        self.send = send


class Interface:
    """Administrative state of one attachment point (§5k).

    Every node with a MANET address gets a ``"wireless"`` interface at
    construction; ``InternetCloud.attach`` adds a ``"wired"`` one. ``up``
    is *administrative* state, independent of ``Node.up`` (host power): a
    node can be running with its radio off. The optional bounded TX queue
    (§5f) hangs off the interface whose airtime it serializes.
    """

    __slots__ = ("name", "up", "tx_queue")

    def __init__(self, name: str) -> None:
        self.name = name
        self.up = True
        self.tx_queue: "InterfaceTxQueue | None" = None


class InterfaceTxQueue:
    """Bounded per-node wireless TX queue with tail-drop shedding (§5f).

    Opt-in: nodes ship without one and hand frames straight to the medium,
    which keeps every existing scenario bit-identical. When installed (via
    :meth:`Node.configure_tx_queue`), the interface transmits at most one
    frame per airtime slot (``medium.transmission_time``); frames arriving
    while the interface is busy wait in a bounded FIFO, and at capacity
    the arriving frame is dropped.

    Emits ``queue.enqueue`` / ``queue.drop`` traces, plus one
    ``queue.high_watermark`` per upward crossing of the watermark, three
    quarters of the capacity (re-armed once the queue drains back below
    it). Everything is driven by the simulator clock; there is no
    randomness here.
    """

    #: The shedding rule, named in every ``queue.drop`` trace.
    POLICY = "tail-drop"

    def __init__(self, node: "Node", capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"TX queue capacity must be >= 1, got {capacity}")
        self.node = node
        self.sim = node.sim
        self.capacity = capacity
        self.high_watermark = max(1, (capacity * 3) // 4)
        # Capacity is enforced by submit(): a maxlen deque would shed frames
        # silently, and a drop must be traced.
        self._frames: deque = deque()  # lint: disable=OVR001
        self._busy = False
        self._above_watermark = False
        self.transmitted = 0
        self.peak_depth = 0

    @property
    def depth(self) -> int:
        """Frames currently waiting (excludes the one on the air)."""
        return len(self._frames)

    def submit(self, next_hop_ip: str | None, packet: Packet, on_link_failure=None) -> None:
        """Hand one frame to the interface (``next_hop_ip=None`` = broadcast)."""
        if not self._busy:
            self._start_transmission(next_hop_ip, packet, on_link_failure)
            return
        if len(self._frames) >= self.capacity:
            self._shed(packet)
            return
        self._enqueue(next_hop_ip, packet, on_link_failure)

    def clear(self) -> None:
        """Forget all queued frames (node crash / interface reset).

        A frame already on the air keeps the interface busy until its
        pending :meth:`_drain`, which nothing cancels, so the next frame
        cannot overlap it.
        """
        self._frames.clear()
        self._above_watermark = False

    def kick(self) -> None:
        """Resume draining after an interface comes back up."""
        if not self._busy and self._frames and self.node.up and self.node.medium is not None:
            self._start_transmission(*self._frames.popleft())

    # -- internals ----------------------------------------------------------
    def _enqueue(self, next_hop_ip: str | None, packet: Packet, on_link_failure) -> None:
        self._frames.append((next_hop_ip, packet, on_link_failure))
        self.node.stats.increment("txqueue.enqueued")
        depth = len(self._frames)
        if depth > self.peak_depth:
            self.peak_depth = depth
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("queue.enqueue", self.node.ip, uid=packet.uid, depth=depth)
        if depth >= self.high_watermark and not self._above_watermark:
            self._above_watermark = True
            self.node.stats.increment("txqueue.high_watermarks")
            if tracer is not None:
                tracer.emit(
                    "queue.high_watermark", self.node.ip,
                    depth=depth, capacity=self.capacity,
                )

    def _shed(self, packet: Packet) -> None:
        self.node.stats.increment("txqueue.drops")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "queue.drop", self.node.ip,
                uid=packet.uid, policy=self.POLICY, capacity=self.capacity,
            )

    def _start_transmission(self, next_hop_ip: str | None, packet: Packet, on_link_failure) -> None:
        medium = self.node.medium
        if medium is None:
            return
        self._busy = True
        self.transmitted += 1
        if next_hop_ip is None:
            medium.broadcast(self.node, packet)
        else:
            medium.unicast(self.node, next_hop_ip, packet, on_link_failure)
        self.sim.schedule(medium.transmission_time(packet), self._drain)

    def _drain(self) -> None:
        self._busy = False
        if len(self._frames) < self.high_watermark:
            self._above_watermark = False
        if (
            self._frames
            and self.node.up
            and self.node.medium is not None
            and self.node.interface_up("wireless")
        ):
            self._start_transmission(*self._frames.popleft())


class Node:
    """A host in the simulated network.

    ``ip`` is the MANET (wireless) address; pass ``None`` for pure Internet
    hosts. A wired address is assigned by ``InternetCloud.attach``; tunnel
    addresses are added by the Connection Provider via ``add_local_address``.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        ip: str | None,
        position: tuple[float, float] = (0.0, 0.0),
        stats: Stats | None = None,
        hostname: str | None = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.ip = ip or ""
        self._position = position
        self.stats = stats or Stats()
        self.hostname = hostname or (f"node-{node_id}")
        self.medium: "WirelessMedium | None" = None
        self.interfaces: dict[str, Interface] = {}
        # The "wireless" entry of ``interfaces``, read on every radio send
        # and receive; None on hosts without one.
        self.wireless: Interface | None = None
        if self.ip:
            self.add_interface("wireless")
        # Observers of administrative interface flaps: ``fn(name, up)``.
        self.on_interface_change: list[Callable[[str, bool], None]] = []
        self.router: Router | None = None
        self.hooks = NetfilterHooks()
        self.wired_ip: str | None = None
        self._sockets: dict[int, UdpSocket] = {}
        self._extra_addresses: set[str] = set()
        self._default_routes: list[_DefaultRoute] = []
        self._next_ephemeral = EPHEMERAL_PORT_BASE
        self.up = True  # set False to crash the node (failure injection)

    # -- position -------------------------------------------------------------
    @property
    def position(self) -> tuple[float, float]:
        return self._position

    @position.setter
    def position(self, value: tuple[float, float]) -> None:
        """Move the node, bumping the medium's position epoch (cache invalidation)."""
        self._position = value
        medium = self.medium
        if medium is not None:
            medium._on_node_moved(self)

    # -- attachment ----------------------------------------------------------
    def join_medium(self, medium: "WirelessMedium") -> None:
        self.medium = medium
        medium.add_node(self)

    def set_router(self, router: Router) -> None:
        self.router = router

    # -- interfaces ----------------------------------------------------------
    def add_interface(self, name: str) -> Interface:
        """Create (or return) the named interface; new interfaces start up."""
        interface = self.interfaces.get(name)
        if interface is None:
            interface = Interface(name)
            self.interfaces[name] = interface
            if name == "wireless":
                self.wireless = interface
        return interface

    def interface_up(self, name: str) -> bool:
        """Administrative state of an interface (unknown names count as up).

        Permissive on purpose: hosts predating the multihoming work (tests,
        wired-only helpers) have no interface objects and must behave as
        they always did.
        """
        interface = self.interfaces.get(name)
        return interface is None or interface.up

    def set_interface_up(self, name: str, up: bool) -> None:
        """Flip an interface's administrative state, notifying observers."""
        interface = self.add_interface(name)
        if interface.up == up:
            return
        interface.up = up
        self.stats.increment(f"iface.{'up' if up else 'down'}")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "iface.up" if up else "iface.down",
                self.ip or self.wired_ip or "",
                iface=name,
            )
        if not up and interface.tx_queue is not None:
            # Radio off sheds anything still waiting for airtime.
            interface.tx_queue.clear()
        if up and interface.tx_queue is not None:
            interface.tx_queue.kick()
        for observer in list(self.on_interface_change):
            observer(name, up)

    @property
    def tx_queue(self) -> InterfaceTxQueue | None:
        """The wireless interface's bounded TX queue (§5f), if configured."""
        interface = self.wireless
        return interface.tx_queue if interface is not None else None

    @tx_queue.setter
    def tx_queue(self, queue: InterfaceTxQueue | None) -> None:
        self.add_interface("wireless").tx_queue = queue

    def configure_tx_queue(self, capacity: int | None) -> None:
        """Install a bounded interface TX queue (``capacity=None`` removes it)."""
        self.tx_queue = None if capacity is None else InterfaceTxQueue(self, capacity)

    # -- failure injection ----------------------------------------------------
    def crash(self) -> None:
        """Abrupt host failure: interfaces stay placed, transport state is lost.

        Marks the node down and forgets every socket, default route, extra
        address, hook chain and routing attachment — exactly what a power
        loss does. Component objects still holding a socket see it as closed.
        A subsequently rebuilt stack can re-bind all well-known ports.
        """
        self.up = False
        for socket in self._sockets.values():
            socket.handler = None
        self._sockets.clear()
        self._default_routes.clear()
        self._extra_addresses.clear()
        self._next_ephemeral = EPHEMERAL_PORT_BASE
        self.router = None
        self.hooks = NetfilterHooks()
        self.on_interface_change.clear()
        for interface in self.interfaces.values():
            interface.up = True  # a power cycle resets administrative state
            if interface.tx_queue is not None:
                interface.tx_queue.clear()

    def restart(self) -> None:
        """Power the node back on (empty-state boot; see :meth:`crash`)."""
        self.up = True

    # -- addressing ----------------------------------------------------------
    @property
    def local_addresses(self) -> set[str]:
        addrs = set(self._extra_addresses)
        if self.ip:
            addrs.add(self.ip)
        if self.wired_ip:
            addrs.add(self.wired_ip)
        return addrs

    def add_local_address(self, ip: str) -> None:
        self._extra_addresses.add(ip)

    def remove_local_address(self, ip: str) -> None:
        self._extra_addresses.discard(ip)

    def is_local_address(self, ip: str) -> bool:
        # Same answer as ``ip in local_addresses``, without building the set
        # (this runs for every packet a node receives or routes).
        return (
            ip == "127.0.0.1"
            or ip in self._extra_addresses
            or (bool(ip) and (ip == self.ip or ip == self.wired_ip))
        )

    # -- default routes (wired / tunnel) ---------------------------------------
    def set_default_route(self, name: str, send: GatewaySendFn, priority: int = 10) -> None:
        """Install (or replace) a named default route; lower priority wins."""
        self.clear_default_route(name)
        self._default_routes.append(_DefaultRoute(priority, name, send))
        self._default_routes.sort(key=lambda route: route.priority)

    def clear_default_route(self, name: str) -> None:
        self._default_routes = [r for r in self._default_routes if r.name != name]

    def has_default_route(self) -> bool:
        return bool(self._default_routes)

    def default_route_names(self) -> list[str]:
        return [route.name for route in self._default_routes]

    # -- transport -------------------------------------------------------------
    def bind(self, port: int, handler: DatagramHandler) -> UdpSocket:
        """Bind ``handler(data, src_ip, src_port)`` to a UDP port."""
        if port in self._sockets:
            raise PortInUseError(port)
        socket = UdpSocket(self, port, handler)
        self._sockets[port] = socket
        return socket

    def bind_ephemeral(self, handler: DatagramHandler) -> UdpSocket:
        """Bind to the next free ephemeral port (>= 49152)."""
        while self._next_ephemeral in self._sockets:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return self.bind(port, handler)

    def _release_port(self, port: int) -> None:
        self._sockets.pop(port, None)

    def send_udp(
        self,
        dst_ip: str,
        sport: int,
        dport: int,
        data: bytes,
        ttl: int = DEFAULT_TTL,
    ) -> None:
        """Originate a UDP datagram from this node."""
        if not self.up:
            return
        packet = Packet(
            self._source_address(), dst_ip, Datagram(sport, dport, data), ttl,
            next(self.sim.packet_uids),
        )
        hooks = self.hooks
        if dport in hooks.output_ports:
            mangled = hooks.run(_OUTPUT, packet)
            if mangled is None:
                return
            packet = mangled
        self.route_packet(packet)

    def _source_address(self) -> str:
        """Preferred source address given current interface state.

        Matches the legacy ``ip or wired_ip`` order while every interface
        is up; a multihomed node with its radio down sources from the
        wired address so replies come back over the surviving uplink.
        """
        wireless = self.wireless
        if self.ip and (wireless is None or wireless.up):
            return self.ip
        if self.wired_ip and self.interface_up("wired"):
            return self.wired_ip
        return self.ip or self.wired_ip or "0.0.0.0"

    # -- IP layer ----------------------------------------------------------------
    def route_packet(self, packet: Packet) -> None:
        """Forwarding decision for a packet originated by or transiting this node."""
        if not self.up:
            return
        if packet.dst == BROADCAST:
            if self.medium is not None:
                self._wireless_tx(None, packet)
            return
        if self.is_local_address(packet.dst):
            self._deliver(packet)
            return
        tracer = self.sim.tracer
        if packet.ttl <= 0:
            self.stats.increment("ip.ttl_expired")
            if tracer is not None:
                tracer.emit(
                    "packet.drop", self.ip, uid=packet.uid, cause="ttl_expired",
                    dst=packet.dst,
                )
            return
        if is_manet_address(packet.dst) and self.ip:
            if self.router is not None:
                self.router.dispatch(packet)
            else:
                self.stats.increment("ip.no_route")
                if tracer is not None:
                    tracer.emit(
                        "packet.drop", self.ip, uid=packet.uid, cause="no_route",
                        dst=packet.dst,
                    )
            return
        for route in self._default_routes:
            # A default route is only usable while its interface is up;
            # routes with no matching interface object ("tunnel") always are.
            if self.interface_up(route.name):
                route.send(packet)
                return
        cause = "iface_down" if self._default_routes else "no_route"
        self.stats.increment("ip.no_route")
        if tracer is not None:
            tracer.emit(
                "packet.drop", self.ip, uid=packet.uid, cause=cause,
                dst=packet.dst,
            )

    def link_send(self, next_hop_ip: str, packet: Packet, on_link_failure=None) -> None:
        """Transmit one wireless hop (used by routing protocols)."""
        if not self.up or self.medium is None:
            return
        hop = None if next_hop_ip == BROADCAST else next_hop_ip
        self._wireless_tx(hop, packet, on_link_failure)

    def _wireless_tx(
        self, next_hop_ip: str | None, packet: Packet, on_link_failure=None
    ) -> None:
        """Every wireless send funnels through here (``None`` = broadcast)."""
        medium = self.medium
        if medium is None:
            return
        wireless = self.wireless
        if wireless is not None:
            if not wireless.up:
                self.stats.increment("iface.tx_down")
                return
            if wireless.tx_queue is not None:
                wireless.tx_queue.submit(next_hop_ip, packet, on_link_failure)
                return
        if next_hop_ip is None:
            medium.broadcast(self, packet)
        else:
            medium.unicast(self, next_hop_ip, packet, on_link_failure)

    # -- receive paths -------------------------------------------------------------
    def receive_wireless(self, packet: Packet, from_ip: str) -> None:
        """Entry point for frames delivered by the wireless medium."""
        wireless = self.wireless
        if not self.up or (wireless is not None and not wireless.up):
            return
        if packet.dst == BROADCAST or self.is_local_address(packet.dst):
            hooks = self.hooks
            if packet.dport in hooks.input_ports:
                mangled = hooks.run(_INPUT, packet)
                if mangled is None:
                    tracer = self.sim.tracer
                    if tracer is not None:
                        tracer.emit(
                            "packet.drop", self.ip, uid=packet.uid, cause="hook_drop",
                        )
                    return
                packet = mangled
            self._deliver(packet, from_ip)
            return
        # We were the link-layer next hop of a transit packet: forward it.
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "packet.forward", self.ip, uid=packet.uid, dst=packet.dst,
                ttl=packet.ttl - 1,
            )
        self.route_packet(packet.forwarded())

    def receive_wired(self, packet: Packet) -> None:
        """Entry point for packets delivered by the Internet cloud."""
        if not self.up or not self.interface_up("wired"):
            return
        if self.is_local_address(packet.dst):
            hooks = self.hooks
            if packet.dport in hooks.input_ports:
                mangled = hooks.run(_INPUT, packet)
                if mangled is None:
                    return
                packet = mangled
            self._deliver(packet)
            return
        self.route_packet(packet.forwarded())

    def _deliver(self, packet: Packet, from_ip: str | None = None) -> None:
        socket = self._sockets.get(packet.dport)
        handler = None if socket is None else socket.handler
        tracer = self.sim.tracer
        if handler is None:
            self.stats.increment("udp.port_unreachable")
            if tracer is not None:
                tracer.emit(
                    "packet.drop", self.ip or self.wired_ip or "",
                    uid=packet.uid, cause="port_unreachable", dport=packet.dport,
                )
            return
        if tracer is not None:
            tracer.emit(
                "packet.rx", self.ip or self.wired_ip or "",
                uid=packet.uid, src=packet.src, dport=packet.dport,
            )
        handler(packet.data, packet.src, packet.sport)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.hostname}, ip={self.ip or self.wired_ip})"


class StaticRouter:
    """A fixed next-hop table; handy for tests and wired-only topologies."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.table: dict[str, str] = {}

    def add_route(self, dst_ip: str, next_hop_ip: str) -> None:
        self.table[dst_ip] = next_hop_ip

    def dispatch(self, packet: Packet) -> None:
        next_hop = self.table.get(packet.dst)
        if next_hop is None:
            self.node.stats.increment("ip.no_route")
            return
        self.node.link_send(next_hop, packet)
