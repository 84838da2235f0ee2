"""Kernel profiler: attribution, install/uninstall, acceptance gate."""

import functools

import pytest

from repro.errors import MetricsError
from repro.metrics.profiler import (
    CORE_SUBSYSTEMS,
    KernelProfiler,
    attribute,
    subsystem_for_module,
)
from repro.netsim import Node, Simulator, manet_ip, place_random
from repro.netsim.medium import WirelessMedium
from repro.routing import Aodv


def handler_a():
    pass


def handler_b(arg):
    del arg


class TestAttribution:
    def test_module_prefix_map(self):
        assert subsystem_for_module("repro.netsim.medium") == "medium"
        assert subsystem_for_module("repro.netsim.simulator") == "kernel"
        assert subsystem_for_module("repro.routing.aodv") == "routing"
        assert subsystem_for_module("repro.core.manet_slp") == "slp"
        assert subsystem_for_module("repro.core.softphone") == "sip"
        assert subsystem_for_module("repro.core.tunnel") == "gateway"
        assert subsystem_for_module("repro.rtp.jitter") == "rtp"
        assert subsystem_for_module("repro.scenarios") == "harness"
        assert subsystem_for_module("some.third.party") == "other"

    def test_attribute_plain_function(self):
        subsystem, handler = attribute(handler_a)
        assert subsystem == "other"  # tests are outside the repro tree
        assert handler == "test_profiler.handler_a"

    def test_attribute_peels_partials_and_bound_methods(self):
        assert attribute(functools.partial(handler_b, 1)) == attribute(handler_b)
        medium_method = WirelessMedium.broadcast
        sim = Simulator(seed=1)
        medium = WirelessMedium(sim)
        bound = medium.broadcast
        assert attribute(bound) == attribute(medium_method)
        assert attribute(bound)[0] == "medium"


class TestInstallUninstall:
    def test_records_wrapped_callbacks(self):
        sim = Simulator(seed=1)
        profiler = KernelProfiler().install(sim)
        sim.schedule(0.5, handler_a)
        sim.schedule(1.0, handler_b, 7)
        sim.run(2.0)
        report = profiler.report()
        by_handler = {row.handler: row for row in report.rows}
        assert by_handler["test_profiler.handler_a"].count == 1
        assert by_handler["test_profiler.handler_b"].count == 1
        assert report.events == 2
        assert report.runs == 1
        assert report.total_wall > 0.0

    def test_residual_row_always_present(self):
        sim = Simulator(seed=1)
        profiler = KernelProfiler().install(sim)
        sim.run(1.0)  # no events at all
        rows = profiler.report().rows
        assert [(row.subsystem, row.handler) for row in rows] == [
            ("kernel", "<event-loop>")
        ]

    def test_uninstall_restores_plain_scheduling(self):
        sim = Simulator(seed=1)
        profiler = KernelProfiler().install(sim)
        profiler.uninstall()
        assert sim.profiler is None
        sim.schedule(0.5, handler_a)
        sim.run(1.0)
        assert profiler.report().events == 0  # nothing recorded after removal
        assert "run" not in sim.__dict__  # class method back in charge

    def test_double_install_rejected(self):
        sim = Simulator(seed=1)
        profiler = KernelProfiler().install(sim)
        with pytest.raises(MetricsError, match="already"):
            profiler.install(Simulator(seed=2))
        with pytest.raises(MetricsError, match="already"):
            KernelProfiler().install(sim)

    def test_profiling_does_not_change_the_schedule(self):
        def run_count(with_profiler):
            sim = Simulator(seed=5)
            if with_profiler:
                KernelProfiler().install(sim)
            for delay in (0.2, 0.4, 0.6):
                sim.schedule(delay, handler_a)
            sim.run(1.0)
            return sim.events_processed, sim.seq, sim.now

        assert run_count(True) == run_count(False)


class TestBroadcastAccounting:
    def test_every_fired_event_is_wrapped_exactly_once(self):
        # An AODV flood on a 16-node random graph: medium deliveries arrive
        # through schedule_batch. If it ever routed through the shadowed
        # sim.schedule, each delivery would be wrapped twice and the
        # per-handler counts would exceed the events fired.
        sim = Simulator(seed=4)
        profiler = KernelProfiler().install(sim)
        medium = WirelessMedium(sim, tx_range=250.0)
        nodes = [Node(sim, index, manet_ip(index)) for index in range(16)]
        for node in nodes:
            node.join_medium(medium)
            Aodv(node).start()
        place_random(nodes, sim, 600.0, 600.0)
        for node in nodes[1:]:
            nodes[0].send_udp(node.ip, 9000, 9000, b"probe")
        nodes[0].send_udp("192.168.0.200", 9000, 9000, b"void")  # retried flood
        sim.run(10.0)
        report = profiler.report()
        rows = {(row.subsystem, row.handler): row.count for row in report.rows}
        assert rows.pop(("kernel", "<event-loop>")) == 0
        assert sum(rows.values()) == report.events == sim.events_processed
        assert rows[("medium", "node.Node.receive_wireless")] > 200


class TestReport:
    @staticmethod
    def _report():
        sim = Simulator(seed=1)
        profiler = KernelProfiler().install(sim)
        for delay in (0.1, 0.2, 0.3):
            sim.schedule(delay, handler_a)
        sim.run(1.0)
        return profiler.report()

    def test_render_contains_totals_and_rows(self):
        text = self._report().render()
        assert "profiled 3 events" in text
        assert "test_profiler.handler_a" in text
        assert "per-subsystem:" in text

    def test_collapsed_stack_format(self):
        lines = self._report().collapsed().strip().splitlines()
        assert lines
        for line in lines:
            frame, weight = line.rsplit(" ", 1)
            assert ";" in frame
            assert int(weight) >= 1

    def test_attributed_fraction_of_empty_profile_is_one(self):
        report = KernelProfiler().report()
        assert report.attributed_fraction() == 1.0


class TestAcceptance:
    """ISSUE 8 gate: the C1 quick variant profile attributes >= 95 % of
    wall-time to named core subsystems with valid collapsed output."""

    def test_c1_quick_variant_attribution(self):
        from repro.experiments.city import run_city_workload

        profiler = KernelProfiler()
        result = run_city_workload(
            n_nodes=120, n_calls=4, drain=15.0, seed=1, profiler=profiler
        )
        assert result["events"] > 0
        report = profiler.report()
        assert report.attributed_fraction(CORE_SUBSYSTEMS) >= 0.95
        collapsed = report.collapsed()
        assert collapsed.endswith("\n")
        subsystems = {line.split(";", 1)[0] for line in collapsed.splitlines()}
        assert "medium" in subsystems  # radio dominates any MANET workload
