"""Unit tests for the discrete-event simulation core."""

import pytest

from repro.errors import SimulationError
from repro.netsim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.3, fired.append, "c")
        sim.schedule(0.1, fired.append, "a")
        sim.schedule(0.2, fired.append, "b")
        sim.run(1.0)
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(0.5, fired.append, label)
        sim.run(1.0)
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.25, lambda: seen.append(sim.now))
        sim.run(1.0)
        assert seen == [0.25]
        assert sim.now == 1.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.run(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run(2.0)
        with pytest.raises(SimulationError):
            sim.run(1.0)

    def test_events_scheduled_during_run_fire_within_window(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(0.1, chain)

        sim.schedule(0.1, chain)
        sim.run(1.0)
        assert fired == pytest.approx([0.1, 0.2, 0.3])

    def test_events_beyond_until_stay_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.run(1.0)
        assert fired == []
        sim.run(3.0)
        assert fired == ["late"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(0.5, fired.append, "x")
        handle.cancel()
        sim.run(1.0)
        assert fired == []
        assert handle.cancelled

    def test_cancel_twice_is_safe(self):
        sim = Simulator()
        handle = sim.schedule(0.5, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run(1.0)

    def test_fired_handle_drops_callback_and_args(self):
        sim = Simulator()
        fired = []
        payload = object()
        handle = sim.schedule(0.5, fired.append, payload)
        sim.run(1.0)
        assert fired == [payload]
        assert handle.done
        assert handle.callback is None
        assert handle.args == ()

    def test_cancelled_handle_drops_callback_and_args(self):
        sim = Simulator()
        handle = sim.schedule(0.5, print, object())
        handle.cancel()
        assert handle.callback is None
        assert handle.args == ()
        sim.run(1.0)  # the tombstone pops without firing
        assert sim.pending_events == 0


class TestQueueHygiene:
    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        handles = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending_events == 6
        sim.run(0.55)  # fires the 0.5 s event (0.1-0.4 s are tombstones)
        assert sim.pending_events == 5

    def test_cancel_after_fire_does_not_corrupt_counter(self):
        sim = Simulator()
        handle = sim.schedule(0.1, lambda: None)
        sim.run(1.0)
        assert sim.pending_events == 0
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 0
        assert sim.queue_size == 0

    def test_heap_compaction_bounds_tombstones(self):
        sim = Simulator()
        for _ in range(50_000):
            sim.schedule(1.0, lambda: None).cancel()
        # Without compaction the heap would hold 50k tombstones.
        assert sim.queue_size < Simulator.COMPACT_MIN
        assert sim.pending_events == 0
        assert sim.compactions > 0

    def test_compaction_bounds_interleaved_tombstones(self):
        # Churn around one long-lived event: the sweep keeps the heap
        # bounded without disturbing the live event.
        sim = Simulator()
        keep = sim.schedule(2.0, lambda: None)
        for _ in range(25_000):
            first = sim.schedule(1.0, lambda: None)
            second = sim.schedule(1.0, lambda: None)
            first.cancel()
            second.cancel()
        assert sim.queue_size < 4 * Simulator.COMPACT_MIN
        assert sim.pending_events == 1
        assert sim.compactions > 0
        assert not keep.done

    def test_compaction_preserves_live_events_and_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, fired.append, "b")
        sim.schedule(0.2, fired.append, "a")
        sim.schedule(0.9, fired.append, "c")
        for _ in range(10_000):
            sim.schedule(0.3, lambda: None).cancel()
        assert sim.compactions > 0
        assert sim.pending_events == 3
        sim.run(1.0)
        assert fired == ["a", "b", "c"]

    def test_compaction_during_run_keeps_the_loop_on_the_live_heap(self):
        # A callback that cancels enough timers to trigger a sweep must not
        # leave the running loop on a stale list: later events still fire
        # exactly once, in order.
        sim = Simulator()
        fired = []
        timers = [sim.schedule(5.0, lambda: None) for _ in range(500)]

        def cancel_all():
            for timer in timers:
                timer.cancel()

        sim.schedule(1.0, cancel_all)
        sim.schedule(2.0, fired.append, "a")
        sim.schedule(3.0, lambda: sim.schedule(0.5, fired.append, "b"))
        sim.run(10.0)
        assert sim.compactions > 0
        assert fired == ["a", "b"]
        assert sim.queue_size == 0

    def test_periodic_stop_churn_stays_bounded(self):
        sim = Simulator()
        for _ in range(5_000):
            sim.schedule_periodic(1.0, lambda: None).stop()
        assert sim.queue_size < Simulator.COMPACT_MIN
        assert sim.pending_events == 0

    def test_compaction_invisible_to_event_stream(self):
        """Same seed + same schedule => same firing trace with/without churn."""

        def run(churn: bool):
            sim = Simulator(seed=5)
            trace = []

            def tick(label):
                trace.append((round(sim.now, 6), label))
                if churn:
                    # Schedule-and-cancel storms between real events.
                    for _ in range(500):
                        sim.schedule(0.01, lambda: None).cancel()
                if len(trace) < 40:
                    sim.schedule(sim.rng.uniform(0.01, 0.1), tick, len(trace))

            sim.schedule(0.01, tick, 0)
            sim.run(10.0)
            return trace

        assert run(churn=False) == run(churn=True)


class TestPeriodic:
    def test_periodic_task_repeats(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(0.5, lambda: ticks.append(sim.now))
        sim.run(2.6)
        assert len(ticks) == 5

    def test_periodic_task_stop(self):
        sim = Simulator()
        ticks = []
        task = sim.schedule_periodic(0.5, lambda: ticks.append(sim.now))
        sim.run(1.1)
        task.stop()
        sim.run(5.0)
        assert len(ticks) == 2
        assert not task.running

    def test_periodic_with_jitter_stays_near_interval(self):
        sim = Simulator(seed=7)
        ticks = []
        sim.schedule_periodic(1.0, lambda: ticks.append(sim.now), jitter=0.1)
        sim.run(10.0)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(0.9 <= gap <= 1.1 for gap in gaps)

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda: None)

    def test_initial_delay_override(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(5.0, lambda: ticks.append(sim.now), initial_delay=0.1)
        sim.run(1.0)
        assert ticks == [pytest.approx(0.1)]


class TestRunUntil:
    def test_run_until_predicate(self):
        sim = Simulator()
        flag = []
        sim.schedule(1.3, flag.append, True)
        assert sim.run_until(lambda: bool(flag), timeout=5.0)
        assert sim.now <= 1.5

    def test_run_until_timeout(self):
        sim = Simulator()
        assert not sim.run_until(lambda: False, timeout=1.0)
        assert sim.now == pytest.approx(1.0)


class TestDeterminism:
    def test_same_seed_same_random_sequence(self):
        a = Simulator(seed=99)
        b = Simulator(seed=99)
        assert [a.rng.random() for _ in range(10)] == [b.rng.random() for _ in range(10)]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(0.1, lambda: None)
        sim.run(1.0)
        assert sim.events_processed == 4
