"""Handle-less batch entries fire exactly as one ``schedule`` call each would.

``Simulator.schedule_batch`` puts each entry on the heap as a bare
``(time, seq, callback, args)`` tuple, next to the ``(time, seq, handle,
None)`` entries of ``schedule`` and ``schedule_at``. Two simulators run the
same random script: the one under test, and a reference whose
``schedule_batch`` is shadowed on the instance to call ``schedule`` once per
entry, as ``tests/netsim/test_kernel_parity.py`` does at scenario level.

A script mixes ``schedule``, ``schedule_at`` and ``schedule_batch`` calls
(some batches hold an entry that raises), handle cancellation, cancellation
churn big enough to compact the heap, and chunked ``run()`` calls. Fired
events run operations of their own, so all of these also happen inside a
running loop. After every step both simulators must agree on the fire
order, ``events_processed``, ``pending_events``, ``seq`` and
``compactions``.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.netsim import Simulator

#: Delays drawn from a few values, so that events often share a time and
#: only their sequence numbers order them.
delays = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5)) | st.floats(0.0, 4.0)

schedules = st.tuples(st.just("schedule"), delays)
schedule_ats = st.tuples(st.just("schedule_at"), delays)
batches = st.tuples(st.just("batch"), st.lists(delays, max_size=6))
# An entry with a negative delay raises SimulationError; the entries before
# it stay scheduled.
failing_batches = st.tuples(
    st.just("batch"),
    st.builds(
        lambda head, tail: head + [-1.0] + tail,
        st.lists(delays, max_size=3),
        st.lists(delays, max_size=2),
    ),
)
cancels = st.tuples(st.just("cancel"), st.integers(0, 1_000))
# Schedule this many more timers than it takes to compact, then cancel them
# all: the sweep runs with every other kind of entry in the heap.
churns = st.tuples(st.just("churn"), st.integers(0, 20))
operations = st.one_of(schedules, schedule_ats, batches, failing_batches, cancels, churns)
runs = st.tuples(st.just("run"), st.sampled_from((0.0, 0.25, 0.5, 1.0, 3.0)))


@st.composite
def scripts(draw) -> tuple[list[tuple], dict[int, list[tuple]]]:
    """Top-level steps, and the operations each numbered event runs when fired."""
    steps = draw(st.lists(operations | runs, min_size=1, max_size=30))
    reactions = draw(
        st.dictionaries(st.integers(0, 60), st.lists(operations, min_size=1, max_size=3), max_size=15)
    )
    return steps, reactions


def per_entry_schedule(sim: Simulator):
    """``schedule_batch`` as one ``schedule`` call per entry."""

    def schedule_batch(entries):
        count = 0
        for delay, callback, args in entries:
            sim.schedule(delay, callback, *args)
            count += 1
        return count

    return schedule_batch


class Driver:
    """Runs one script on one simulator and logs what it sees."""

    def __init__(self, sim: Simulator, reactions: dict[int, list[tuple]]) -> None:
        self.sim = sim
        self.reactions = reactions
        self.labels = itertools.count()
        self.handles: list = []
        self.log: list = []

    def fire(self, label: int) -> None:
        self.log.append(("fire", label, self.sim.now))
        for operation in self.reactions.get(label, ()):
            self.apply(operation)

    def apply(self, operation: tuple) -> None:
        sim = self.sim
        kind, value = operation
        if kind == "schedule":
            self.handles.append(sim.schedule(value, self.fire, next(self.labels)))
        elif kind == "schedule_at":
            self.handles.append(sim.schedule_at(sim.now + value, self.fire, next(self.labels)))
        elif kind == "batch":
            entries = [(delay, self.fire, (next(self.labels),)) for delay in value]
            try:
                self.log.append(("batch", sim.schedule_batch(entries)))
            except SimulationError:
                self.log.append(("batch", "raised"))
        elif kind == "cancel":
            if self.handles:
                self.handles[value % len(self.handles)].cancel()
        elif kind == "churn":
            count = max(Simulator.COMPACT_MIN, 2 * sim.pending_events + 1) + value
            timers = [sim.schedule(1.0, self.fire, -1) for _ in range(count)]
            for timer in timers:
                timer.cancel()
        else:  # "run"
            sim.run(sim.now + value)
        self.log.append(self.state())

    def state(self) -> tuple:
        sim = self.sim
        return (sim.now, sim.events_processed, sim.pending_events, sim.seq, sim.compactions)


def run_script(steps: list[tuple], reactions: dict[int, list[tuple]], reference: bool) -> list:
    sim = Simulator(seed=0)
    if reference:
        sim.schedule_batch = per_entry_schedule(sim)
    driver = Driver(sim, reactions)
    for step in steps:
        driver.apply(step)
    driver.apply(("run", 100.0))  # drain what the script left pending
    return driver.log


class TestHandlelessBatchEntries:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(scripts())
    def test_batch_fires_as_per_entry_schedule(self, script):
        steps, reactions = script
        assert run_script(steps, reactions, reference=False) == run_script(
            steps, reactions, reference=True
        )

    def test_compaction_mid_run_keeps_batch_entries(self):
        """A pinned script: a fired event's churn compacts the heap while
        batch entries and a failed batch's survivors are pending."""
        steps = [
            ("batch", [0.5, 0.5, 1.0]),
            ("schedule", 0.25),
            ("batch", [0.75, -1.0, 0.75]),
            ("run", 3.0),
        ]
        reactions = {3: [("churn", 0), ("batch", [0.0, 0.1])]}
        log = run_script(steps, reactions, reference=False)
        assert log == run_script(steps, reactions, reference=True)
        assert log[-1][4] == 1  # compactions: the churn swept the heap once
        fired = [entry[1] for entry in log if entry[0] == "fire"]
        assert fired == [3, 7, 8, 0, 1, 4, 2]
