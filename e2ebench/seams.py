"""Per-layer span tracing for the traced benchmark run.

The tracer is installed from outside the simulator, inside the benchmark's
child process: it wraps public callables at class level and shadows each
``Simulator``'s scheduling entry points right after ``Simulator.__init__``
(the technique of ``repro.metrics.profiler.KernelProfiler``), so no file
under ``src/`` changes and the event schedule is untouched. Traced and
untraced runs of one seed produce the same digest.

Spans live on an in-memory stack and are aggregated per collapsed path
(``run;kernel;event.medium;node.rx;hooks.run;hooks.siphoc-slp-aodv-in``),
each with its call count and self time: the span's duration minus the time
its child spans cover. Self times of all paths sum to the root span, the
traced ``run_s``. A wrapper's own cost lands in its caller's self time;
:func:`span_cost_us` calibrates it.

Spans are recorded only inside :meth:`SpanTracer.run` (the measured drive);
during scenario set-up every wrapper passes straight through.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

from repro.core.manet_slp import ManetSlp
from repro.metrics.profiler import attribute
from repro.netsim.capture import NetfilterHooks
from repro.netsim.medium import WirelessMedium
from repro.netsim.node import Node
from repro.netsim.simulator import PeriodicTask, Simulator
from repro.netsim.stats import traffic_class_for_port
from repro.routing.aodv import Aodv
from repro.routing.olsr import Olsr
from repro.rtp.jitter import JitterBuffer
from repro.sip.transaction import TransactionLayer

#: (class, method, span name) for every plain seam.
SEAMS: tuple[tuple[type, str, str], ...] = (
    (WirelessMedium, "broadcast", "medium.broadcast"),
    (WirelessMedium, "unicast", "medium.unicast"),
    (WirelessMedium, "neighbors", "medium.neighbors"),
    (Node, "receive_wireless", "node.rx"),
    (Node, "route_packet", "node.route"),
    (Node, "send_udp", "node.send"),
    (NetfilterHooks, "run", "hooks.run"),
    (Aodv, "dispatch", "aodv.dispatch"),
    (Olsr, "dispatch", "olsr.dispatch"),
    (TransactionLayer, "send_request", "sip.txn_send"),
    (ManetSlp, "find_services", "slp.find"),
    # RtpSession feeds its jitter buffer through classify(); on_packet is
    # a thin alias no caller in the simulator uses.
    (JitterBuffer, "classify", "rtp.jitter"),
)

#: Span names reported as ``<name>.calls`` / ``<name>.self_s``.
SPAN_NAMES: tuple[str, ...] = (
    "kernel",
    "event.medium",
    "event.routing",
    "event.sip",
    "event.slp",
    "event.rtp",
    "event.gateway",
    "event.other",
    *(name for _, _, name in SEAMS),
    "hooks.siphoc-slp-aodv-in",
    "hooks.siphoc-slp-aodv-out",
    "hooks.siphoc-slp-olsr-in",
    "hooks.siphoc-slp-olsr-out",
    "aodv.rx",
    "olsr.rx",
    "sip.rx",
    "siphoc.rx",
    "slp.rx",
    "rtp.rx",
    "other.rx",
)

#: Event subsystems with a span of their own; the rest become event.other.
_EVENT_SUBSYSTEMS = frozenset(
    name.split(".", 1)[1] for name in SPAN_NAMES if name.startswith("event.")
) - {"other"}

#: Socket-demux labels with a span of their own; the rest become other.rx.
_RX_CLASSES = frozenset(
    name[: -len(".rx")] for name in SPAN_NAMES if name.endswith(".rx")
) - {"other"}

ROOT = "run"
PENDING_SAMPLE_MASK = 1023  # sample the pending set every 1024 events


class SpanTracer:
    """Span stack plus per-path aggregation, installed once per process."""

    def __init__(self) -> None:
        self.paths: dict[str, list] = {}  # collapsed path -> [calls, self_s]
        self._stack: list[list] = []  # frames: [path, child_s]
        self._event_names: dict[Any, str] = {}
        self.events = 0
        self.pending_max = 0
        self.total_s = 0.0

    # -- spans ------------------------------------------------------------------
    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so each call inside :meth:`run` is a span ``name``."""
        stack = self._stack
        paths = self.paths
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [parent[0] + ";" + name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[1] += elapsed
                record = paths.get(frame[0])
                if record is None:
                    paths[frame[0]] = [1, elapsed - frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed - frame[1]

        return traced

    def run(self, drive: Callable[[], None]) -> float:
        """Call ``drive`` as the root span; returns its duration."""
        if self._stack:
            raise RuntimeError("tracer root span is already open")
        frame = [ROOT, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            drive()
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
        self.paths[ROOT] = [1, elapsed - frame[1]]
        self.total_s = elapsed
        return elapsed

    # -- installation -------------------------------------------------------------
    def install(self) -> "SpanTracer":
        """Wrap every seam at class level (call before building a scenario)."""
        for cls, method, name in SEAMS:
            setattr(cls, method, self.span(name, getattr(cls, method)))
        Simulator.run = self.span("kernel", Simulator.run)
        tracer = self

        orig_register = NetfilterHooks.register

        @functools.wraps(orig_register)
        def register(hooks, chain, ports, fn, name=""):
            traced = tracer.span(f"hooks.{name or 'unnamed'}", fn)
            return orig_register(hooks, chain, ports, traced, name)

        NetfilterHooks.register = register

        orig_bind = Node.bind

        @functools.wraps(orig_bind)
        def bind(node, port, handler):
            label = traffic_class_for_port(port)
            label = label if label in _RX_CLASSES else "other"
            return orig_bind(node, port, tracer.span(f"{label}.rx", handler))

        Node.bind = bind

        orig_init = Simulator.__init__

        @functools.wraps(orig_init)
        def init(sim, *args, **kwargs):
            orig_init(sim, *args, **kwargs)
            tracer._shadow_scheduling(sim)

        Simulator.__init__ = init
        return self

    def _shadow_scheduling(self, sim: Simulator) -> None:
        schedule, schedule_at, schedule_batch = (
            sim.schedule,
            sim.schedule_at,
            sim.schedule_batch,
        )
        event = self._event

        def shadow_schedule(delay, callback, *args):
            return schedule(delay, event(sim, callback), *args)

        def shadow_schedule_at(at, callback, *args):
            return schedule_at(at, event(sim, callback), *args)

        def shadow_schedule_batch(entries):
            return schedule_batch(
                [(delay, event(sim, callback), args) for delay, callback, args in entries]
            )

        sim.schedule = shadow_schedule
        sim.schedule_at = shadow_schedule_at
        sim.schedule_batch = shadow_schedule_batch

    def _event(self, sim: Simulator, callback: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap one scheduled callback as an ``event.<subsystem>`` span.

        Also counts events fired inside the root span and samples the
        pending set every 1024 of them. The span logic of :meth:`span` is
        inlined: this runs once per scheduled event, where a second wrapper
        and ``functools.wraps`` would double the tracing cost.
        """
        target = _attribution_target(callback)
        key = _callback_key(target)
        name = self._event_names.get(key)
        if name is None:
            name = _event_name(target)
            self._event_names[key] = name
        stack = self._stack
        paths = self.paths
        perf = time.perf_counter
        tracer = self

        def fire(*args):
            if not stack:
                return callback(*args)
            tracer.events += 1
            if not tracer.events & PENDING_SAMPLE_MASK:
                pending = sim.pending_events
                if pending > tracer.pending_max:
                    tracer.pending_max = pending
            parent = stack[-1]
            frame = [parent[0] + ";" + name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return callback(*args)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[1] += elapsed
                record = paths.get(frame[0])
                if record is None:
                    paths[frame[0]] = [1, elapsed - frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed - frame[1]

        return fire

    # -- reporting ------------------------------------------------------------------
    def totals(self) -> dict[str, list]:
        """``[calls, self_s]`` per span name (the last path component)."""
        out: dict[str, list] = {name: [0, 0.0] for name in SPAN_NAMES}
        for path, (calls, self_s) in self.paths.items():
            leaf = path.rsplit(";", 1)[-1]
            record = out.setdefault(leaf, [0, 0.0])
            record[0] += calls
            record[1] += self_s
        return out

    def folded(self) -> str:
        """Collapsed-stack lines, ``path <self microseconds>``."""
        return "".join(
            f"{path} {max(1, round(self_s * 1e6))}\n"
            for path, (_, self_s) in sorted(self.paths.items())
        )


def _attribution_target(callback: Callable[..., Any]) -> Callable[..., Any]:
    """The function an event really runs: a periodic task's own callback."""
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, PeriodicTask):
        return getattr(owner, "_callback", callback)
    return callback


def _callback_key(callback: Callable[..., Any]) -> Any:
    """A stable cache key for a callback's defining function."""
    while True:
        if isinstance(callback, functools.partial):
            callback = callback.func
            continue
        inner = getattr(callback, "__func__", None)
        if inner is None:
            break
        callback = inner
    callback = getattr(callback, "__wrapped__", callback)
    code = getattr(callback, "__code__", None)
    if code is not None:
        return code
    return (getattr(callback, "__module__", None), getattr(callback, "__qualname__", None))


def _event_name(callback: Callable[..., Any]) -> str:
    subsystem, _ = attribute(callback)
    return f"event.{subsystem if subsystem in _EVENT_SUBSYSTEMS else 'other'}"


def span_cost_us(calls: int = 20000) -> float:
    """Calibrated cost of one empty span, in microseconds.

    Times ``calls`` calls of a no-op through a span wrapper under a scratch
    root and subtracts the same calls made directly.
    """

    def noop() -> None:
        return None

    probe = SpanTracer()
    wrapped = probe.span("probe", noop)
    perf = time.perf_counter

    def loop(fn: Callable[[], None]) -> float:
        start = perf()
        for _ in range(calls):
            fn()
        return perf() - start

    direct = min(loop(noop) for _ in range(3))
    spanned = min(probe.run(lambda: loop(wrapped)) for _ in range(3))
    return max(0.0, (spanned - direct) / calls * 1e6)
