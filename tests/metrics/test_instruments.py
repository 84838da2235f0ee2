"""The standard scenario instrument set: coverage and read-only purity."""

import pytest

from repro.core.config import SiphocConfig
from repro.metrics import scraper as scraper_mod
from repro.scenarios import ManetConfig, ManetScenario

#: Gauges every instrumented scenario must expose regardless of workload.
EXPECTED_GAUGES = [
    "gateway.leases.active",
    "routing.routes.max",
    "routing.routes.sum",
    "rtp.jitter.backlog.max",
    "rtp.jitter.backlog.sum",
    "rtp.sessions",
    "sim.events_processed",
    "sim.pending_events",
    "sip.admission.inflight",
    "sip.admission.inflight.peak",
    "slp.cache.size.max",
    "slp.cache.size.sum",
    "slp.local.services",
    "txqueue.depth.max",
    "txqueue.depth.peak",
    "txqueue.depth.sum",
]


@pytest.fixture
def scenario():
    built = ManetScenario(
        ManetConfig(
            n_nodes=3, seed=3, metrics=True, metrics_interval=0.5,
            tx_queue_capacity=8,
        )
    )
    yield built
    built.stop()


class TestInstallation:
    def test_metrics_off_by_default(self):
        scenario = ManetScenario(ManetConfig(n_nodes=2, seed=1))
        assert scenario.metrics is None
        assert scenario.sim.metrics is None
        scenario.stop()

    def test_standard_gauges_registered(self, scenario):
        gauges, histograms = scenario.metrics.read()
        for name in EXPECTED_GAUGES:
            assert name in gauges, name
        assert "routing.aodv.pending" in gauges
        assert "routing.olsr.topology" not in gauges
        assert sorted(histograms) == ["routing.routes.dist", "txqueue.depth.dist"]

    def test_enable_default_attaches_without_config_flag(self):
        scraper_mod.disable_default()
        scraper_mod.enable_default(0.25)
        try:
            scenario = ManetScenario(ManetConfig(n_nodes=2, seed=1))
            assert scenario.metrics is not None
            assert scenario.metrics.interval == 0.25
            assert scenario.metrics in scraper_mod.registered()
            scenario.stop()
        finally:
            scraper_mod.disable_default()

    def test_config_interval_wins_over_default(self):
        scraper_mod.disable_default()
        scraper_mod.enable_default(5.0)
        try:
            scenario = ManetScenario(
                ManetConfig(n_nodes=2, seed=1, metrics=True, metrics_interval=0.5)
            )
            assert scenario.metrics.interval == 0.5
            scenario.stop()
        finally:
            scraper_mod.disable_default()


class TestReadings:
    def test_gauges_move_during_a_run(self, scenario):
        scenario.start()
        scenario.converge()
        snapshots = scenario.metrics.snapshots
        assert snapshots, "converge() advanced sim time; scrapes must exist"
        last = snapshots[-1]
        assert last.gauges["routing.routes.sum"] > 0
        assert last.gauges["sim.events_processed"] > 0
        assert last.counters["metrics.scrapes"] == len(snapshots)

    def test_histograms_observe_population_per_scrape(self, scenario):
        scenario.start()
        scenario.converge()
        last = scenario.metrics.snapshots[-1]
        depth_dist = last.histograms["txqueue.depth.dist"]
        # one observation per node per scrape
        assert depth_dist["count"] == len(scenario.metrics.snapshots) * 3

    def test_collect_does_not_insert_stats_keys(self, scenario):
        # Stats-mirror gauges read through Stats.count: reading a counter
        # that was never incremented must not materialize it.
        before = scenario.stats.summary()
        scenario.metrics.read()
        assert scenario.stats.summary() == before

    def test_shed_gauges_read_stats_under_a_call_burst(self):
        # One-frame TX queues and a one-call admission limit: a burst of
        # overlapping calls over the 2-hop chain both drops frames and
        # sheds INVITEs with 503, and each gauge shows the Stats count.
        scenario = ManetScenario(
            ManetConfig(
                n_nodes=3, seed=7, metrics=True, metrics_interval=0.5,
                tx_queue_capacity=1,
                siphoc=SiphocConfig(
                    admission_max_inflight=1, admission_queue_watermark=0.75
                ),
            )
        )
        scenario.start()
        scenario.add_phone(0, "caller")
        scenario.add_phone(2, "callee")
        scenario.converge()
        caller = scenario.phones["caller"]
        for k in range(6):
            scenario.sim.schedule(k * 0.5, caller.place_call, "sip:callee@voicehoc.ch", 4.0)
        scenario.sim.run(scenario.sim.now + 8.0)
        scenario.stop()
        last = scenario.metrics.snapshots[-1].gauges
        drops = scenario.stats.count("txqueue.drops")
        rejected = scenario.stats.count("sip.admission_rejected")
        assert drops > 0 and rejected > 0
        assert last["txqueue.dropped"] == drops
        assert last["sip.admission.rejected"] == rejected
