"""Opt-in kernel profiler: wall-time and event-count attribution.

This is the ONE module in the metrics package allowed to read the host
clock (``time.perf_counter``) — lint rules DET001 and OBS001 both exempt
exactly this file. The profiler never touches simulation time, never
draws randomness, and never changes the event schedule: it wraps each
scheduled callback in a timing shim at *schedule* time, so events keep
their original ``(time, seq)`` and fire in the same order; only the
callable object differs, which the event loop never compares.

Zero overhead when off: the profiler works by shadowing the simulator's
scheduling methods (``sim.schedule``, ``sim.schedule_at``,
``sim.schedule_batch``) with instance-attribute wrappers, plus shadowing
``sim.run`` to measure total wall-time per advance. ``uninstall()`` puts
the saved bindings back; the class itself is never monkeypatched.

Install the profiler *before* building the scenario: events scheduled
earlier are not wrapped, and their callback time lands in the kernel
residual. Attribution maps a callback's defining module onto a subsystem
(kernel, medium, routing, sip, slp, gateway, rtp, trace, faults,
harness); the gap between measured total wall-time and the sum of
callback self-times — heap pushes and pops, clock advances — is
attributed to ``kernel`` as the ``<event-loop>`` handler.

Output: a ranked per-handler table (:meth:`ProfileReport.render`) and
collapsed-stack lines (:meth:`ProfileReport.collapsed`) loadable by
speedscope or flamegraph.pl (``subsystem;handler <microseconds>``).
"""

from __future__ import annotations

import functools
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import MetricsError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.simulator import Simulator

#: Module-prefix → subsystem map, most specific first. A callback defined
#: in a module matching no prefix lands in "other".
SUBSYSTEM_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.netsim.medium", "medium"),
    ("repro.netsim.node", "medium"),
    ("repro.netsim", "kernel"),
    ("repro.routing", "routing"),
    ("repro.sip", "sip"),
    ("repro.core.manet_slp", "slp"),
    ("repro.core.handlers", "slp"),
    ("repro.slp", "slp"),
    ("repro.core.softphone", "sip"),
    ("repro.core.proxy", "sip"),
    ("repro.core.extension", "sip"),
    ("repro.core.stack", "sip"),
    ("repro.core", "gateway"),
    ("repro.rtp", "rtp"),
    ("repro.trace", "trace"),
    ("repro.faults", "faults"),
    ("repro.metrics", "kernel"),
    ("repro.scenarios", "harness"),
    ("repro.experiments", "harness"),
    ("repro.baselines", "harness"),
)

#: The subsystems the acceptance gate expects simulation time to land in.
CORE_SUBSYSTEMS = frozenset(
    {"kernel", "medium", "routing", "sip", "slp", "rtp", "trace"}
)


def _unwrap(callback: Callable[..., Any]) -> Callable[..., Any]:
    """Peel partials and bound methods down to the defining function."""
    while True:
        if isinstance(callback, functools.partial):
            callback = callback.func
            continue
        inner = getattr(callback, "__func__", None)
        if inner is not None:
            callback = inner
            continue
        return callback


def subsystem_for_module(module: str) -> str:
    for prefix, subsystem in SUBSYSTEM_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return subsystem
    return "other"


def attribute(callback: Callable[..., Any]) -> tuple[str, str]:
    """Map a callback onto its ``(subsystem, handler)`` attribution key."""
    raw = _unwrap(callback)
    module = getattr(raw, "__module__", "") or ""
    qualname = getattr(raw, "__qualname__", None) or getattr(
        raw, "__name__", repr(raw)
    )
    short = module.rsplit(".", 1)[-1] if module else "?"
    return subsystem_for_module(module), f"{short}.{qualname}"


class KernelProfiler:
    """Attributes wall-time and event counts per handler and subsystem."""

    def __init__(self) -> None:
        # key -> [count, seconds]; key is (subsystem, handler)
        self._records: dict[tuple[str, str], list] = {}
        self._keys: dict[Any, tuple[str, str]] = {}  # raw function -> key cache
        self._total_wall = 0.0
        self._events = 0
        self._runs = 0
        self._sim: "Simulator" | None = None
        self._saved: tuple | None = None

    # -- install / uninstall -----------------------------------------------
    def install(self, sim: "Simulator") -> "KernelProfiler":
        if self._sim is not None:
            raise MetricsError("profiler is already installed on a simulator")
        if sim.profiler is not None:
            raise MetricsError("simulator already has a profiler installed")
        self._sim = sim
        orig_schedule = sim.schedule
        orig_schedule_at = sim.schedule_at
        orig_schedule_batch = sim.schedule_batch
        self._saved = (orig_schedule, orig_schedule_at, orig_schedule_batch)
        wrap = self._wrap

        def schedule(delay, callback, *args):
            return orig_schedule(delay, wrap(callback), *args)

        def schedule_at(at, callback, *args):
            return orig_schedule_at(at, wrap(callback), *args)

        def schedule_batch(entries):
            return orig_schedule_batch(
                [(delay, wrap(callback), args) for delay, callback, args in entries]
            )

        perf = time.perf_counter
        from repro.netsim.simulator import Simulator

        def run(until):
            start = perf()
            before = sim.events_processed
            try:
                Simulator.run(sim, until)
            finally:
                self._total_wall += perf() - start
                self._events += sim.events_processed - before
                self._runs += 1

        sim.schedule = schedule
        sim.schedule_at = schedule_at
        sim.schedule_batch = schedule_batch
        sim.run = run  # instance shadow over the class method
        sim.profiler = self
        return self

    def uninstall(self) -> None:
        sim = self._sim
        if sim is None:
            return
        saved = self._saved
        assert saved is not None
        sim.schedule, sim.schedule_at, sim.schedule_batch = saved
        try:
            del sim.run  # drop the instance shadow, revealing the class method
        except AttributeError:  # pragma: no cover - defensive
            pass
        sim.profiler = None
        self._sim = None
        self._saved = None
        # Already-scheduled wrapped callbacks keep recording when they fire;
        # that is harmless (their wrappers only append to this profiler).

    # -- timing -------------------------------------------------------------
    def _wrap(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        raw = _unwrap(callback)
        key = self._keys.get(raw)
        if key is None:
            key = attribute(callback)
            self._keys[raw] = key
        records = self._records
        perf = time.perf_counter

        def timed(*args):
            start = perf()
            try:
                callback(*args)
            finally:
                elapsed = perf() - start
                record = records.get(key)
                if record is None:
                    records[key] = [1, elapsed]
                else:
                    record[0] += 1
                    record[1] += elapsed

        return timed

    # -- reporting ----------------------------------------------------------
    def report(self) -> "ProfileReport":
        rows = [
            ProfileRow(subsystem=key[0], handler=key[1], count=rec[0], seconds=rec[1])
            for key, rec in self._records.items()
        ]
        callback_time = sum(row.seconds for row in rows)
        residual = self._total_wall - callback_time
        if residual < 0.0:
            residual = 0.0
        callback_events = sum(row.count for row in rows)
        residual_events = self._events - callback_events
        if residual_events < 0:
            residual_events = 0
        rows.append(
            ProfileRow(
                subsystem="kernel",
                handler="<event-loop>",
                count=residual_events,
                seconds=residual,
            )
        )
        rows.sort(key=lambda row: (-row.seconds, row.subsystem, row.handler))
        return ProfileReport(
            rows=rows,
            total_wall=self._total_wall,
            events=self._events,
            runs=self._runs,
        )


class ProfileRow:
    __slots__ = ("subsystem", "handler", "count", "seconds")

    def __init__(self, subsystem: str, handler: str, count: int, seconds: float) -> None:
        self.subsystem = subsystem
        self.handler = handler
        self.count = count
        self.seconds = seconds


class ProfileReport:
    """A finished profile: ranked rows plus whole-run totals."""

    def __init__(
        self, rows: list[ProfileRow], total_wall: float, events: int, runs: int
    ) -> None:
        self.rows = rows
        self.total_wall = total_wall
        self.events = events
        self.runs = runs

    def subsystem_totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for row in self.rows:
            totals[row.subsystem] = totals.get(row.subsystem, 0.0) + row.seconds
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def attributed_fraction(self, subsystems: frozenset | set = CORE_SUBSYSTEMS) -> float:
        """Fraction of measured wall-time landing in the named subsystems."""
        if self.total_wall <= 0.0:
            return 1.0
        named = sum(
            row.seconds for row in self.rows if row.subsystem in subsystems
        )
        fraction = named / self.total_wall
        return 1.0 if fraction > 1.0 else fraction

    def render(self, top: int = 20) -> str:
        lines = [
            f"profiled {self.events} events over {self.runs} run(s), "
            f"{self.total_wall * 1e3:.1f} ms wall",
            "",
            f"{'subsystem':<10} {'handler':<44} {'events':>9} {'ms':>9} {'%':>6}",
        ]
        total = self.total_wall if self.total_wall > 0 else 1.0
        for row in self.rows[:top]:
            lines.append(
                f"{row.subsystem:<10} {row.handler[:44]:<44} {row.count:>9} "
                f"{row.seconds * 1e3:>9.2f} {100.0 * row.seconds / total:>5.1f}%"
            )
        lines.append("")
        lines.append("per-subsystem:")
        for name, seconds in self.subsystem_totals().items():
            lines.append(
                f"  {name:<10} {seconds * 1e3:>9.2f} ms {100.0 * seconds / total:>5.1f}%"
            )
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed-stack lines (``subsystem;handler <microseconds>``).

        One line per handler, weight in integer microseconds (minimum 1 for
        any handler that fired) — the format flamegraph.pl and speedscope
        ingest directly.
        """
        lines = []
        for row in self.rows:
            weight = int(row.seconds * 1e6)
            if weight <= 0:
                if row.count <= 0:
                    continue
                weight = 1
            lines.append(f"{row.subsystem};{row.handler} {weight}")
        return "\n".join(lines) + ("\n" if lines else "")
