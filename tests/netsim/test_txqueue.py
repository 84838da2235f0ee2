"""Unit tests for the bounded interface TX queue (§5f overload control)."""

import pytest

from repro.netsim import Simulator, WirelessMedium
from repro.netsim.node import InterfaceTxQueue
from repro.trace import TraceCollector
from tests.conftest import make_chain


@pytest.fixture
def quiet(sim, stats):
    """Zero-jitter medium: delivery order mirrors transmission order."""
    return WirelessMedium(sim, stats=stats, tx_range=150.0, jitter=0.0)


def burst(a, b, count, start=0):
    """Send ``count`` back-to-back datagrams a -> b in one event slot."""
    for k in range(start, start + count):
        a.send_udp(b.ip, 4000, 5000, f"p{k}".encode())


def collect(b):
    got = []
    b.bind(5000, lambda data, src, sport: got.append(data))
    return got


class TestConstruction:
    def test_capacity_must_be_positive(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        with pytest.raises(ValueError):
            InterfaceTxQueue(a, 0)

    def test_default_watermark_is_three_quarters(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        assert InterfaceTxQueue(a, 16).high_watermark == 12
        assert InterfaceTxQueue(a, 1).high_watermark == 1  # floor at 1

    def test_configure_installs_and_removes(self, sim, medium):
        (a,) = make_chain(sim, medium, 1)
        assert a.tx_queue is None
        a.configure_tx_queue(8)
        assert a.tx_queue is not None
        assert a.tx_queue.capacity == 8
        a.configure_tx_queue(None)
        assert a.tx_queue is None


class TestSerialization:
    def test_idle_interface_cuts_through(self, sim, quiet):
        a, b = make_chain(sim, quiet, 2, static_routes=True)
        a.configure_tx_queue(8)
        got = collect(b)
        a.send_udp(b.ip, 4000, 5000, b"solo")
        sim.run(1.0)
        assert got == [b"solo"]
        assert a.tx_queue.transmitted == 1
        assert a.stats.count("txqueue.enqueued") == 0
        assert a.tx_queue.depth == 0

    def test_burst_queues_and_drains_in_order(self, sim, quiet):
        a, b = make_chain(sim, quiet, 2, static_routes=True)
        a.configure_tx_queue(8)
        got = collect(b)
        burst(a, b, 4)
        assert a.tx_queue.depth == 3  # first frame is on the air, not queued
        sim.run(1.0)
        assert got == [b"p0", b"p1", b"p2", b"p3"]
        assert a.tx_queue.transmitted == 4
        assert a.tx_queue.depth == 0
        assert a.stats.count("txqueue.enqueued") == 3
        assert a.stats.count("txqueue.drops") == 0

    def test_spaced_sends_never_queue(self, sim, quiet):
        a, b = make_chain(sim, quiet, 2, static_routes=True)
        a.configure_tx_queue(8)
        got = collect(b)
        for k in range(3):
            sim.schedule(k * 0.1, a.send_udp, b.ip, 4000, 5000, f"p{k}".encode())
        sim.run(1.0)
        assert got == [b"p0", b"p1", b"p2"]
        assert a.stats.count("txqueue.enqueued") == 0


class TestDropPolicies:
    def test_tail_drop_sheds_the_arrival(self, sim, quiet):
        a, b = make_chain(sim, quiet, 2, static_routes=True)
        a.configure_tx_queue(2)
        got = collect(b)
        burst(a, b, 5)  # 1 on air + 2 queued; p3, p4 shed on arrival
        sim.run(1.0)
        assert got == [b"p0", b"p1", b"p2"]
        assert a.stats.count("txqueue.drops") == 2


class TestWatermark:
    def test_single_event_per_upward_crossing(self, sim, quiet):
        a, b = make_chain(sim, quiet, 2, static_routes=True)
        a.configure_tx_queue(4)  # default watermark: 3
        collect(b)
        burst(a, b, 5)  # queue depth reaches 4, crossing 3 exactly once
        assert a.stats.count("txqueue.high_watermarks") == 1
        sim.run(1.0)
        assert a.stats.count("txqueue.high_watermarks") == 1

    def test_rearms_after_draining_below(self, sim, quiet):
        a, b = make_chain(sim, quiet, 2, static_routes=True)
        a.configure_tx_queue(4)
        collect(b)
        burst(a, b, 5)
        sim.run(0.5)  # fully drained
        assert a.tx_queue.depth == 0
        sim.schedule(0.0, burst, a, b, 5, 5)
        sim.run(1.0)
        assert a.stats.count("txqueue.high_watermarks") == 2

    def test_below_watermark_burst_emits_nothing(self, sim, quiet):
        a, b = make_chain(sim, quiet, 2, static_routes=True)
        a.configure_tx_queue(8)  # watermark 6
        collect(b)
        burst(a, b, 4)
        sim.run(1.0)
        assert a.stats.count("txqueue.high_watermarks") == 0


class TestTraceEvents:
    def test_enqueue_drop_and_watermark_traces(self):
        sim = Simulator(seed=1)
        collector = TraceCollector().attach(sim)
        medium = WirelessMedium(sim, tx_range=150.0, jitter=0.0)
        a, b = make_chain(sim, medium, 2, static_routes=True)
        a.configure_tx_queue(4)  # default watermark: 3
        collect(b)
        burst(a, b, 6)  # p0 on air, p1-p4 queued, p5 shed
        sim.run(1.0)
        kinds = [event.kind for event in collector.events]
        assert kinds.count("queue.enqueue") == 4
        assert kinds.count("queue.drop") == 1
        assert kinds.count("queue.high_watermark") == 1
        drop = next(e for e in collector.events if e.kind == "queue.drop")
        assert drop.node == a.ip
        assert drop.detail["policy"] == "tail-drop"
        assert drop.detail["capacity"] == 4
        enqueue_depths = [
            e.detail["depth"] for e in collector.events if e.kind == "queue.enqueue"
        ]
        assert enqueue_depths == [1, 2, 3, 4]


class TestCrash:
    def test_crash_clears_queued_frames(self, sim, quiet):
        a, b = make_chain(sim, quiet, 2, static_routes=True)
        a.configure_tx_queue(8)
        got = collect(b)
        burst(a, b, 4)
        assert a.tx_queue.depth == 3
        a.crash()
        assert a.tx_queue.depth == 0
        sim.run(1.0)
        # Only the frame already on the air at crash time arrives.
        assert got == [b"p0"]


class TestRadioFlap:
    def test_frame_on_the_air_keeps_the_interface_busy(self, sim, quiet):
        """A radio flap mid-frame must not let the next frame overlap it."""
        a, b = make_chain(sim, quiet, 2, static_routes=True)
        a.configure_tx_queue(8)
        collect(b)
        starts = []
        quiet.add_sniffer(lambda frame: starts.append(round(frame.time * 1000, 3)))
        payload = bytes(1000)
        a.send_udp(b.ip, 4000, 5000, payload)  # on the air for 4.748 ms

        def flap_then_send():
            a.set_interface_up("wireless", False)
            a.set_interface_up("wireless", True)
            a.send_udp(b.ip, 4000, 5000, payload)
            a.send_udp(b.ip, 4000, 5000, payload)

        sim.schedule(0.0001, flap_then_send)
        sim.run(1.0)
        assert starts == [0.0, 4.748, 9.496]


class TestDefaultsOff:
    def test_nodes_ship_without_a_queue(self, sim, quiet):
        a, b = make_chain(sim, quiet, 2, static_routes=True)
        assert a.tx_queue is None and b.tx_queue is None
        got = collect(b)
        burst(a, b, 6)
        sim.run(1.0)
        # Unbounded legacy path: everything delivered, no queue accounting.
        assert got == [f"p{k}".encode() for k in range(6)]
        assert a.stats.count("txqueue.enqueued") == 0
        assert a.stats.count("txqueue.drops") == 0
