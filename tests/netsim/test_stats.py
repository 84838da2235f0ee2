"""Unit tests for the measurement registry."""

import math

import pytest

from repro.netsim import SampleSeries, Stats
from repro.netsim.packet import PORT_AODV, PORT_OLSR, PORT_SIP, PORT_SLP
from repro.netsim.stats import traffic_class_for_port

#: (port, expected class) — every labelled port plus each range boundary.
TRAFFIC_CLASS_TABLE = [
    # labelled well-known ports
    (PORT_AODV, "aodv"),
    (PORT_OLSR, "olsr"),
    (PORT_SLP, "slp"),
    (PORT_SIP, "sip"),
    # RTP range [16384, 32768): both edges, interior, and both off-by-ones
    (16383, "other"),
    (16384, "rtp"),
    (30000, "rtp"),
    (32767, "rtp"),
    (32768, "other"),
    # SIPHoc control ports and the baseline-scheme ports
    (5062, "siphoc"),
    (5063, "siphoc"),
    (5065, "flooding-register"),
    (5066, "proactive-hello"),
    # softphone/WAN-leg SIP range [5060, 5100): edges and interior
    (5059, "other"),
    (5060, "sip"),
    (5070, "sip"),
    (5099, "sip"),
    (5100, "other"),
    # fallback
    (0, "other"),
    (12345, "other"),
    (65535, "other"),
]


class TestTrafficClasses:
    @pytest.mark.parametrize("port,expected", TRAFFIC_CLASS_TABLE)
    def test_classification(self, port, expected):
        assert traffic_class_for_port(port) == expected

    def test_labelled_ports_shadow_the_sip_range(self):
        # 5062/5063 fall inside [5060, 5100) but the explicit labels win.
        assert traffic_class_for_port(5062) != "sip"
        assert traffic_class_for_port(5065) != "sip"


class TestStats:
    def test_transmission_counts_class_and_total(self):
        stats = Stats()
        stats.record_transmission(654, 100)
        stats.record_transmission(654, 50)
        stats.record_transmission(5060, 200)
        assert stats.traffic_bytes("aodv") == 150
        assert stats.traffic_packets("aodv") == 2
        assert stats.traffic_bytes("total") == 350
        assert stats.traffic_packets("total") == 3

    def test_counters(self):
        stats = Stats()
        stats.increment("x")
        stats.increment("x", 4)
        assert stats.count("x") == 5
        assert stats.count("unknown") == 0

    def test_summary_shape(self):
        stats = Stats()
        stats.record_transmission(654, 10)
        stats.increment("c")
        stats.sample("s", 1.0)
        summary = stats.summary()
        assert summary["traffic"]["aodv"] == {"packets": 1, "bytes": 10}
        assert summary["counters"] == {"c": 1}
        assert summary["samples"]["s"]["count"] == 1

    def test_summary_includes_percentiles(self):
        stats = Stats()
        for value in range(1, 101):
            stats.sample("delay", float(value))
        snapshot = stats.summary()["samples"]["delay"]
        assert snapshot["p50"] == 50.0
        assert snapshot["p95"] == 95.0
        assert snapshot["p99"] == 99.0
        assert abs(snapshot["stddev"] - 29.011) < 0.01


class TestSampleSeries:
    def test_basic_stats(self):
        series = SampleSeries()
        for value in (1.0, 2.0, 3.0, 4.0):
            series.add(value)
        assert series.mean == 2.5
        assert series.minimum == 1.0
        assert series.maximum == 4.0
        assert series.count == 4

    def test_stddev(self):
        series = SampleSeries(values=[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert abs(series.stddev - 2.138) < 0.01

    def test_empty_series(self):
        series = SampleSeries()
        assert math.isnan(series.mean)
        assert math.isnan(series.percentile(50))
        assert series.stddev == 0.0

    def test_percentiles(self):
        series = SampleSeries(values=[float(v) for v in range(1, 101)])
        assert series.percentile(50) == 50.0
        assert series.percentile(95) == 95.0
        assert series.percentile(100) == 100.0
        assert series.percentile(0) == 1.0

    def test_percentile_cache_reused_until_growth(self):
        series = SampleSeries(values=[3.0, 1.0, 2.0])
        assert series.percentile(50) == 2.0
        first_sorted = series._sorted
        assert series.percentile(95) == 3.0
        assert series._sorted is first_sorted  # no re-sort while unchanged
        series.add(0.0)
        assert series.percentile(0) == 0.0  # cache invalidated by growth
        assert series._sorted is not first_sorted


class TestPercentileEdgeCases:
    """Nearest-rank boundary behavior: the cases summaries actually hit."""

    def test_empty_series_every_pct_is_nan(self):
        series = SampleSeries()
        for pct in (0, 50, 100):
            assert math.isnan(series.percentile(pct))

    def test_single_sample_every_pct_returns_it(self):
        series = SampleSeries(values=[42.0])
        for pct in (0, 1, 50, 99, 100):
            assert series.percentile(pct) == 42.0

    def test_p0_is_minimum_and_p100_is_maximum(self):
        series = SampleSeries(values=[9.0, 7.0, 3.0, 5.0])
        assert series.percentile(0) == series.minimum == 3.0
        assert series.percentile(100) == series.maximum == 9.0

    def test_rank_boundaries_round_up(self):
        # Nearest-rank with ceil: pct exactly on a rank boundary selects
        # that rank; one epsilon above tips to the next sample.
        series = SampleSeries(values=[10.0, 20.0, 30.0, 40.0])
        assert series.percentile(25) == 10.0
        assert series.percentile(25.0001) == 20.0
        assert series.percentile(50) == 20.0
        assert series.percentile(50.0001) == 30.0
        assert series.percentile(75) == 30.0
        assert series.percentile(75.0001) == 40.0

    def test_unsorted_input_is_ranked_by_value(self):
        series = SampleSeries(values=[5.0, 1.0, 4.0, 2.0, 3.0])
        assert [series.percentile(p) for p in (20, 40, 60, 80, 100)] == [
            1.0,
            2.0,
            3.0,
            4.0,
            5.0,
        ]

    def test_duplicate_values(self):
        series = SampleSeries(values=[1.0, 1.0, 1.0, 9.0])
        assert series.percentile(75) == 1.0
        assert series.percentile(76) == 9.0


class TestStatsSerialization:
    @staticmethod
    def _populated():
        stats = Stats()
        stats.record_transmission(654, 100)   # aodv
        stats.record_transmission(5060, 200)  # sip
        stats.increment("zeta", 3)
        stats.increment("alpha")
        stats.sample("delay", 1.5)
        stats.sample("delay", 0.5)
        stats.sample("mos", 4.2)
        return stats

    def test_round_trip_preserves_everything(self):
        original = self._populated()
        restored = Stats.from_dict(original.to_dict())
        assert restored.summary() == original.summary()
        assert restored.to_dict() == original.to_dict()
        # raw sample order survives, not just the aggregates
        assert restored.samples["delay"].values == [1.5, 0.5]

    def test_to_dict_is_schema_versioned_and_sorted(self):
        data = self._populated().to_dict()
        assert data["schema_version"] == Stats.SCHEMA_VERSION
        assert list(data["counters"]) == ["alpha", "zeta"]
        assert list(data["traffic"]) == sorted(data["traffic"])
        assert list(data["samples"]) == ["delay", "mos"]

    def test_to_dict_json_round_trips(self):
        import json

        data = self._populated().to_dict()
        assert json.loads(json.dumps(data, sort_keys=True)) == data

    def test_from_dict_rejects_unknown_schema_version(self):
        data = self._populated().to_dict()
        data["schema_version"] = Stats.SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            Stats.from_dict(data)
        with pytest.raises(ValueError, match="schema_version"):
            Stats.from_dict({})

    def test_round_trip_of_empty_stats(self):
        restored = Stats.from_dict(Stats().to_dict())
        assert restored.summary() == Stats().summary()

    def test_reading_an_unwritten_name_adds_nothing(self):
        stats = self._populated()
        before = stats.to_dict()
        assert stats.count("never") == 0
        assert stats.traffic_bytes("never") == 0
        assert stats.traffic_packets("never") == 0
        assert stats.to_dict() == before
