"""Unit tests for the histogram, the gauge table and the Prometheus renderer."""

import pytest

from repro.errors import MetricsError
from repro.metrics.instruments import AODV_GAUGE, GAUGES, HISTOGRAMS, OLSR_GAUGE
from repro.metrics.registry import (
    DEPTH_BUCKETS,
    Histogram,
    prometheus_name,
    render_prometheus,
)
from repro.metrics.scraper import MetricsScraper
from repro.scenarios import ManetConfig, ManetScenario


class TestGauge:
    def test_callback_driven(self):
        # A gauge reads live state each time it is read: nothing is copied.
        scenario = ManetScenario(ManetConfig(n_nodes=2, seed=1))
        read = dict(GAUGES)["ip.no_route"]
        assert read(scenario) == 0
        scenario.stats.increment("ip.no_route", 3)
        assert read(scenario) == 3


class TestHistogram:
    def test_bucketing_and_cumulative_read(self):
        hist = Histogram("depth", bounds=(1.0, 4.0, 8.0))
        for value in (0.0, 1.0, 2.0, 5.0, 100.0):
            hist.observe(value)
        data = hist.read()
        assert data["bounds"] == [1.0, 4.0, 8.0]
        # per-bucket: <=1 -> 2, <=4 -> 1, <=8 -> 1, +Inf -> 1; cumulative:
        assert data["buckets"] == [2, 3, 4, 5]
        assert data["count"] == 5
        assert data["sum"] == 108.0

    def test_rejects_empty_bounds(self):
        with pytest.raises(MetricsError, match="at least one bucket"):
            Histogram("depth", bounds=())

    def test_rejects_non_ascending_bounds(self):
        with pytest.raises(MetricsError, match="strictly ascending"):
            Histogram("depth", bounds=(1.0, 1.0))
        with pytest.raises(MetricsError, match="strictly ascending"):
            Histogram("depth", bounds=(4.0, 2.0))

    def test_rejects_non_finite_bounds(self):
        with pytest.raises(MetricsError, match="finite"):
            Histogram("depth", bounds=(1.0, float("inf")))

    def test_default_depth_buckets_are_ascending(self):
        assert list(DEPTH_BUCKETS) == sorted(DEPTH_BUCKETS)
        Histogram("depth", bounds=DEPTH_BUCKETS)  # must not raise


class TestRegistry:
    """The fixed instrument table, and the snapshot one scrape builds."""

    def test_instruments_sorted_by_name(self):
        names = [name for name, _ in GAUGES]
        assert names == sorted(names)
        every = names + [AODV_GAUGE[0], OLSR_GAUGE[0]] + [name for name, *_ in HISTOGRAMS]
        assert len(set(every)) == len(every), "a name is listed twice"

    def test_collect_sections_sorted(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        scraper = MetricsScraper(lambda: ({"b.count": 2, "a.count": 1}, {"h": hist.read()}))
        sections = scraper.scrape(1.0).to_dict()
        assert list(sections["gauges"]) == ["a.count", "b.count"]
        assert sections["gauges"]["b.count"] == 2
        assert sections["counters"] == {"metrics.scrapes": 1}
        assert sections["histograms"]["h"]["count"] == 1


class TestPrometheus:
    def test_name_mapping(self):
        assert prometheus_name("txqueue.depth.max") == "repro_txqueue_depth_max"
        assert prometheus_name("plain", prefix="") == "plain"

    def test_render_counter_gauge_histogram(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(1.5)
        sections = {"counters": {"c": 3}, "gauges": {"g": 1.5}, "histograms": {"h": hist.read()}}
        text = render_prometheus(sections)
        assert "# HELP" not in text
        assert "# TYPE repro_c counter" in text
        assert "repro_c 3" in text
        assert "# TYPE repro_g gauge" in text
        assert "repro_g 1.5" in text
        assert 'repro_h_bucket{le="1.0"} 0' in text
        assert 'repro_h_bucket{le="2.0"} 1' in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_sum 1.5" in text
        assert "repro_h_count 1" in text

    def test_render_empty_sections_is_empty(self):
        assert render_prometheus({"counters": {}, "gauges": {}, "histograms": {}}) == ""
