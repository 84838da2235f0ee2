"""Host-speed probe: scales a timed phase to a reference host speed.

On a shared host the speed of one core drifts by up to 1.5x within minutes
(other tenants' work on the same physical core); identical runs of one
workload measured 1.8 s to 3.7 s. Repetition cannot average away a drift
that outlasts the benchmark, so every timed run carries its own speed
reading. The probe is fixed pure-Python work of about 0.3 ms: a loop over
small objects, dicts and strings, plus a pointer walk over a ring of
50,000 objects that does not fit in cache. A compute-only probe
over-reacts to contention and a memory-only probe under-reacts; their sum
tracked identical runs best. Over ten seeds, scaled medians spread 1-4 %
where unscaled ones spread 2-20 %.

The probe runs in the simulator's thread at least every ``PROBE_EVERY_S``
of process CPU time, between slices of simulated time. A phase's CPU
time, probe time excluded, is scaled by ``REFERENCE_PROBE_S / mean probe
time`` over that phase: the seconds the phase would take on a host where
the probe takes ``REFERENCE_PROBE_S``.

Slicing ``Simulator.run`` into short steps of simulated time does not
change the simulation: events fire in the same order, and every run's
digest is compared with the unsliced traced run's.
"""

from __future__ import annotations

import random
import time

from repro.netsim.simulator import Simulator

REFERENCE_PROBE_S = 250e-6
PROBE_EVERY_S = 0.02
SLICE_SIM_S = 0.05
RING_SIZE = 50_000
RING_STEPS = 300
LOOKUPS = 150


class _Item:
    __slots__ = ("key", "weight", "nxt")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.nxt: _Item | None = None

    def score(self, bias: int) -> int:
        return self.key * 31 + self.weight + bias


def _compute_work() -> int:
    """Cache-resident interpreter work: objects, calls, dicts, lists, strings."""
    table: dict[int, int] = {}
    queue: list[_Item] = []
    total = 0
    for i in range(120):
        item = _Item(i & 15, i)
        queue.append(item)
        table[item.key] = table.get(item.key, 0) + item.score(i)
        if len(queue) > 8:
            total += queue.pop(0).score(len(table))
        total += len(f"{i}:{item.key}")
    return total


class SpeedProbe:
    """Collects probe timings per phase and slices ``Simulator.run``."""

    def __init__(self) -> None:
        built = time.process_time()
        rng = random.Random(RING_SIZE)
        ring = [_Item(i & 15, i) for i in range(RING_SIZE)]
        order = list(range(RING_SIZE))
        rng.shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            ring[here].nxt = ring[there]
        self._cursor = ring[0]
        self._table = {i: ring[i] for i in range(0, RING_SIZE, 3)}
        self._keys = [rng.randrange(0, RING_SIZE, 3) for _ in range(4096)]
        self._key_pos = 0
        self._samples: list[float] = []
        self._last = time.process_time()
        # Building the ring is benchmark overhead, not part of the phase.
        self._spent = self._last - built

    def _memory_work(self) -> int:
        """A pointer walk and dict lookups spread over the whole ring."""
        node = self._cursor
        total = 0
        for _ in range(RING_STEPS):
            node = node.nxt
            total += node.weight
        table, keys, pos = self._table, self._keys, self._key_pos
        for j in range(LOOKUPS):
            total += table[keys[(pos + j) & 4095]].weight
        self._cursor = node
        self._key_pos = (pos + LOOKUPS) & 4095
        return total

    def sample(self, times: int = 1) -> None:
        clock = time.process_time
        for _ in range(times):
            start = clock()
            _compute_work()
            self._memory_work()
            elapsed = clock() - start
            self._samples.append(elapsed)
            self._spent += elapsed
        self._last = clock()

    def maybe_sample(self) -> None:
        if time.process_time() - self._last >= PROBE_EVERY_S:
            self.sample()

    def finish_phase(self, elapsed: float) -> tuple[float, float, float]:
        """``(scaled_s, raw_s, mean_probe_s)`` of a phase that took ``elapsed``."""
        raw = elapsed - self._spent
        mean = sum(self._samples) / len(self._samples)
        self._samples = []
        self._spent = 0.0
        return raw * REFERENCE_PROBE_S / mean, raw, mean

    def install(self) -> "SpeedProbe":
        """Make ``Simulator.run`` advance in short slices, probing between them."""
        run = Simulator.run
        probe = self

        def sliced_run(sim: Simulator, until: float) -> None:
            while sim.now + SLICE_SIM_S < until:
                run(sim, sim.now + SLICE_SIM_S)
                probe.maybe_sample()
            run(sim, until)
            probe.maybe_sample()

        Simulator.run = sliced_run
        return self
