"""Discrete-event simulation core.

The simulator is single-threaded and fully deterministic: events fire in
(time, sequence) order and all randomness flows from one seeded
``random.Random`` instance owned by the simulator. All higher layers (radio
medium, routing daemons, SIP timers, RTP schedules) are driven by this clock.

Pending events live in one binary heap of ``(time, seq, target, args)``
tuples. ``seq`` is unique, so tuple comparison is done in C and never
reaches the callback. An entry is one of two kinds:

- ``(time, seq, callback, args)``: a frame delivery or any other
  :meth:`Simulator.schedule_batch` entry, which nothing can cancel and so
  carries no handle;
- ``(time, seq, handle, None)``: a :meth:`Simulator.schedule` or
  :meth:`Simulator.schedule_at` event, whose :class:`EventHandle` holds the
  callback and args.

Cancellation leaves a tombstone (a cancelled handle) that the loop skips;
the heap is compacted lazily, with hysteresis
(:attr:`Simulator.COMPACT_MIN`), so heavy timer churn stays bounded in
memory. Compaction never changes the pop order.
``tests/netsim/test_golden.py`` pins the fingerprints of seeded scenarios,
so any change to the event order shows up there.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Iterable

from repro.errors import SimulationError

__all__ = ["EventHandle", "PeriodicTask", "Simulator"]

#: (delay, callback, args) triples accepted by :meth:`Simulator.schedule_batch`.
BatchEntry = tuple[float, Callable[..., None], tuple[Any, ...]]


class EventHandle:
    """A scheduled event and its cancellation handle (one object, no wrapper).

    :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at` return one;
    :meth:`Simulator.schedule_batch` entries (frame deliveries) get none,
    since nothing cancels them. The simulator builds these via ``__new__`` +
    direct stores, profiled ~35% faster than ``__init__`` dispatch.

    A fired or cancelled handle drops its callback and args. Owners keep
    handles to their own timers (a transaction, a periodic task), and the
    callback is usually a bound method of that owner: a done handle that
    kept it would tie the owner into a reference cycle, left for the
    cyclic collector instead of freed when the owner goes.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "popped", "_sim")
    time: float
    seq: int
    callback: Callable[..., None] | None
    args: tuple[Any, ...]
    cancelled: bool
    popped: bool
    _sim: "Simulator"

    @property
    def done(self) -> bool:
        """True once the event can never fire again (fired or cancelled)."""
        return self.cancelled or self.popped

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if self.cancelled or self.popped:
            return
        self.cancelled = True
        self.callback = None
        self.args = ()
        self._sim._on_cancel()


class PeriodicTask:
    """A repeating task created by :meth:`Simulator.schedule_periodic`."""

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._jitter = jitter
        self._callback = callback
        self._stopped = False
        self._handle: EventHandle | None = None

    def start(self, initial_delay: float | None = None) -> "PeriodicTask":
        delay = self._next_delay() if initial_delay is None else initial_delay
        self._handle = self._sim.schedule(delay, self._fire)
        return self

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def running(self) -> bool:
        return not self._stopped

    def _next_delay(self) -> float:
        if self._jitter <= 0:
            return self._interval
        spread = self._jitter * self._interval
        return self._interval + self._sim.rng.uniform(-spread, spread)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._handle = self._sim.schedule(self._next_delay(), self._fire)


class Simulator:
    """Deterministic discrete-event simulator with a virtual clock in seconds.

    ``now`` (current virtual time), ``seq`` (the last sequence number handed
    out, i.e. events ever scheduled) and ``events_processed`` are plain
    attributes for speed; only the event loop writes them. The identifier
    streams (``packet_uids``, ``call_ids``, ``tags``, ``branches``,
    ``rtp_ports``, ``ssrcs``) are ``itertools.count`` iterators that the
    layers above draw from with ``next()``.

    Compaction fires only once tombstones both reach :attr:`COMPACT_MIN`
    *and* outnumber live events two to one. The floor is the hysteresis: a
    bare ``tombstones > live`` trigger re-fires on nearly every cancellation
    when few live events are pending (schedule-then-cancel churn around a
    lone keepalive would compact every other cycle).
    """

    #: Hysteresis floor: never compact with fewer tombstones than this.
    COMPACT_MIN = 64

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.now = 0.0
        self.seq = 0
        self.events_processed = 0
        self._heap: list[tuple[float, int, Any, tuple[Any, ...] | None]] = []
        self._tombstones = 0  # cancelled events still in the heap
        self._compactions = 0
        # Optional repro.trace.TraceCollector; None means tracing is off and
        # emission sites pay only this attribute read plus a None check.
        self.tracer = None
        # Optional repro.metrics.MetricsScraper; None means metrics are off
        # and run() advances in one piece.
        self.metrics = None
        # Optional repro.metrics.profiler.KernelProfiler, set by
        # attach_profiler(); kept for introspection/uninstall.
        self.profiler = None
        # The run's identifier streams. Every node mints its own Call-IDs,
        # tags and Via branches (RFC 3261 section 8.1.1), RTP ports and
        # SSRCs; one stream per run keeps them unique within the run and
        # makes them a function of the seed alone, whatever ran before.
        self.packet_uids = itertools.count(1)
        self.call_ids = itertools.count(1)
        self.tags = itertools.count(1)
        self.branches = itertools.count(1)
        self.rtp_ports = itertools.count(0)
        self.ssrcs = itertools.count(0x1000)

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) scheduled events. O(1)."""
        return len(self._heap) - self._tombstones

    @property
    def queue_size(self) -> int:
        """Heap entries including tombstones (memory diagnostics)."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """How many times tombstones have been swept from the heap."""
        return self._compactions

    # -- scheduling ---------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        self.seq = seq = self.seq + 1
        event = EventHandle.__new__(EventHandle)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.popped = False
        event._sim = self
        heapq.heappush(self._heap, (time, seq, event, None))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, clock is already at {self.now:.6f}"
            )
        self.seq = seq = self.seq + 1
        event = EventHandle.__new__(EventHandle)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.popped = False
        event._sim = self
        heapq.heappush(self._heap, (time, seq, event, None))
        return event

    def schedule_batch(self, entries: Iterable[BatchEntry]) -> int:
        """Schedule ``(delay, callback, args)`` entries in order; returns the count.

        Fires like one :meth:`schedule` call per entry, with the same
        sequence numbers and so the same pop order, but returns no handles:
        each entry goes on the heap as a bare ``(time, seq, callback,
        args)`` tuple, which is what makes a frame delivery cheap. ``args``
        must be a tuple. If an entry raises, the ones before it stay
        scheduled and ``seq`` counts exactly those.

        Every frame delivery comes through here, never straight onto the
        heap: profilers and tracers shadow ``schedule``, ``schedule_at`` and
        ``schedule_batch`` on the instance to see every event, and this
        method pushes directly rather than calling the (possibly shadowed)
        ``schedule``, which would wrap every callback twice.
        """
        now = self.now
        seq = start = self.seq
        heap = self._heap
        push = heapq.heappush
        try:
            for delay, callback, args in entries:
                if delay < 0:
                    raise SimulationError(f"cannot schedule into the past (delay={delay})")
                seq += 1
                push(heap, (now + delay, seq, callback, args))
        finally:
            self.seq = seq
        return seq - start

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        initial_delay: float | None = None,
    ) -> PeriodicTask:
        """Run ``callback`` every ``interval`` seconds (optionally jittered).

        ``jitter`` is a fraction of the interval: with ``jitter=0.1`` each
        period is drawn uniformly from ``interval * [0.9, 1.1]``. Returns the
        started :class:`PeriodicTask`; call :meth:`PeriodicTask.stop` to end it.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, jitter=jitter)
        return task.start(initial_delay=initial_delay)

    # -- cancellation -------------------------------------------------------
    def _on_cancel(self) -> None:
        self._tombstones = tombstones = self._tombstones + 1
        # tombstones > 2 * live, with live = len(heap) - tombstones
        if tombstones >= self.COMPACT_MIN and 3 * tombstones > 2 * len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones from the heap in place; pop order is unchanged.

        In place, because an event loop that is running holds the list.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[3] is not None or not entry[2].cancelled]
        heapq.heapify(heap)
        self._tombstones = 0
        self._compactions += 1

    # -- running ------------------------------------------------------------
    def run(self, until: float) -> None:
        """Process events until the clock reaches ``until`` seconds.

        The clock always ends exactly at ``until`` even if the queue drains
        early, so repeated ``run`` calls compose predictably.

        With a metrics scraper attached, the advance is cut into chunks at
        the scraper's due times, with a snapshot between chunks. Chunks pop
        exactly the same ``(time, seq)`` sequence as one uncut advance, so
        the event schedule is byte-identical with scraping on or off — the
        metrics determinism contract (DESIGN.md §5i).
        """
        if until < self.now:
            raise SimulationError(
                f"cannot run until {until:.6f}, clock is already at {self.now:.6f}"
            )
        scraper = self.metrics
        if scraper is not None:
            due = scraper.next_due
            while due <= until:
                self._fire_until(due)
                if self.now < due:
                    self.now = due
                scraper.scrape(due)
                due = scraper.next_due
        self._fire_until(until)
        self.now = until

    def _fire_until(self, until: float) -> None:
        """Fire every pending event with ``time <= until`` in (time, seq) order.

        Leaves ``now`` at the last fired event.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                if heap[0][0] > until:
                    break
                time, _, target, args = pop(heap)
                if args is None:  # a handle: it may be a tombstone
                    if target.cancelled:
                        self._tombstones -= 1
                        continue
                    target.popped = True
                    args = target.args
                    callback = target.callback
                    target.callback = None
                    target.args = ()
                    target = callback
                self.now = time
                processed += 1
                target(*args)
        finally:
            self.events_processed += processed

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        step: float = 0.05,
    ) -> bool:
        """Advance time in ``step`` increments until ``predicate()`` is true.

        Returns ``True`` if the predicate became true before ``timeout``
        (absolute deadline of ``now + timeout``), ``False`` otherwise.
        """
        deadline = self.now + timeout
        while self.now < deadline:
            if predicate():
                return True
            self.run(min(self.now + step, deadline))
        return predicate()

    # -- profiling ----------------------------------------------------------
    def attach_profiler(self, profiler: Any) -> Any:
        """Install an opt-in kernel profiler (see ``repro.metrics.profiler``).

        Delegates to ``profiler.install(self)``; :attr:`profiler` holds the
        installed instance. Zero overhead when never called.
        """
        profiler.install(self)
        return profiler
