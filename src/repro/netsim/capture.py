"""Packet interception and capture.

Two facilities live here:

* :class:`NetfilterHooks` — the in-node equivalent of the Linux netfilter
  QUEUE target used by SIPHoc via ``libipq``. MANET SLP registers hooks that
  match routing-daemon traffic (UDP ports 654/698) and may *rewrite* packets
  in flight to piggyback service information, without the routing daemon
  ever knowing. This preserves the architectural seam of the paper exactly.

* :class:`PacketCapture` — a promiscuous sniffer attached to the wireless
  medium (our Wireshark, used to regenerate Figure 5 and to account control
  overhead).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.netsim.packet import Packet


class Verdict(enum.Enum):
    """Outcome of a netfilter hook, mirroring libipq verdicts."""

    ACCEPT = "accept"
    DROP = "drop"


class Chain(enum.Enum):
    """Hook chains: OUTPUT sees locally generated packets, INPUT sees
    packets addressed to (or broadcast at) this node before delivery."""

    OUTPUT = "output"
    INPUT = "input"


HookFn = Callable[[Packet], tuple[Verdict, Packet]]

# Read per packet: on Python 3.11 an enum member load calls EnumType.__getattr__.
_INPUT = Chain.INPUT
_DROP = Verdict.DROP


@dataclass
class _Hook:
    chain: Chain
    ports: frozenset[int]
    fn: HookFn
    name: str


class NetfilterHooks:
    """Per-node packet mangling chains (the libipq substitute).

    A hook receives the packet and returns ``(verdict, packet)``; returning a
    different packet object rewrites the traffic. Hooks run in registration
    order; a DROP verdict short-circuits the chain.

    Each chain keeps a dict from destination port to the tuple of hook
    functions watching it, so :meth:`run` walks only the hooks of the
    packet's port. ``input_ports`` and ``output_ports`` are those dicts'
    key views; the node skips :meth:`run` for any other port, so traffic no
    hook matches never enters the chain. The tuples fix two rules:

    * a hook returns a packet with the ports it received
      (:meth:`Packet.with_data` keeps them), since the tuple walked is the
      one of the port the packet entered the chain with;
    * a hook registered or removed during :meth:`run` takes effect from
      the next packet.
    """

    def __init__(self) -> None:
        self._hooks: list[_Hook] = []
        self._reindex()

    def register(
        self,
        chain: Chain,
        ports: Iterable[int],
        fn: HookFn,
        name: str = "",
    ) -> _Hook:
        hook = _Hook(chain=chain, ports=frozenset(ports), fn=fn, name=name)
        self._hooks.append(hook)
        self._reindex()
        return hook

    def unregister(self, hook: _Hook) -> None:
        self._hooks.remove(hook)
        self._reindex()

    def _reindex(self) -> None:
        def by_port(chain: Chain) -> dict[int, tuple[HookFn, ...]]:
            index: dict[int, tuple[HookFn, ...]] = {}
            for hook in self._hooks:
                if hook.chain is chain:
                    for port in hook.ports:
                        index[port] = index.get(port, ()) + (hook.fn,)
            return index

        self._input = by_port(Chain.INPUT)
        self._output = by_port(Chain.OUTPUT)
        self.input_ports = self._input.keys()
        self.output_ports = self._output.keys()

    def run(self, chain: Chain, packet: Packet) -> Packet | None:
        """Run ``packet`` through ``chain``; None means the packet was dropped."""
        index = self._input if chain is _INPUT else self._output
        for fn in index.get(packet.dport, ()):
            verdict, packet = fn(packet)
            if verdict is _DROP:
                return None
        return packet


@dataclass
class CapturedFrame:
    """One on-air transmission observed by a sniffer."""

    time: float
    sender_ip: str
    receiver_ip: str  # link-layer receiver ("*" for broadcast frames)
    packet: Packet
    delivered: bool

    @property
    def size(self) -> int:
        return self.packet.size


class PacketCapture:
    """Promiscuous capture of wireless transmissions (our Wireshark).

    Attach with ``medium.add_sniffer(capture.on_frame)``. ``port_filter``
    restricts which frames are kept, e.g. ``{654}`` for AODV only.
    """

    def __init__(
        self,
        port_filter: Iterable[int] | None = None,
        max_frames: int | None = None,
    ) -> None:
        self.frames: list[CapturedFrame] = []
        self._port_filter = frozenset(port_filter) if port_filter is not None else None
        self._max_frames = max_frames

    def on_frame(self, frame: CapturedFrame) -> None:
        if self._port_filter is not None and frame.packet.dport not in self._port_filter:
            return
        if self._max_frames is not None and len(self.frames) >= self._max_frames:
            return
        self.frames.append(frame)

    def clear(self) -> None:
        self.frames.clear()

    def __len__(self) -> int:
        return len(self.frames)

    def filter(
        self,
        dport: int | None = None,
        sender_ip: str | None = None,
        predicate: Callable[[CapturedFrame], bool] | None = None,
    ) -> list[CapturedFrame]:
        """Return captured frames matching all given criteria."""
        out = []
        for frame in self.frames:
            if dport is not None and frame.packet.dport != dport:
                continue
            if sender_ip is not None and frame.sender_ip != sender_ip:
                continue
            if predicate is not None and not predicate(frame):
                continue
            out.append(frame)
        return out
