"""Scraper piggyback semantics and the JSONL codec."""

import io

import pytest

from repro.errors import MetricsError
from repro.metrics import scraper as scraper_mod
from repro.metrics.scraper import (
    SCHEMA,
    MetricsScraper,
    export_registered,
    load_jsonl,
    register,
    registered,
)
from repro.netsim import Simulator
from repro.scenarios import ManetConfig, ManetScenario


def noop():
    pass


def nothing():
    """A reader with no gauges and no histograms."""
    return {}, {}


class TestScraperConstruction:
    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_interval(self, interval):
        with pytest.raises(MetricsError, match="interval"):
            MetricsScraper(nothing, interval=interval)

    def test_tick_arithmetic_has_no_float_drift(self):
        # 0.1 is not representable in binary; a += accumulator would drift,
        # the integer-tick product must not.
        scraper = MetricsScraper(nothing, interval=0.1)
        for _ in range(1000):
            scraper.scrape(scraper.next_due)
        assert scraper.next_due == 1001 * 0.1
        assert scraper.snapshots[-1].t == 1000 * 0.1

    def test_scrape_counts_itself(self):
        scraper = MetricsScraper(nothing, interval=1.0)
        scraper.scrape(1.0)
        scraper.scrape(2.0)
        assert scraper.snapshots[-1].counters["metrics.scrapes"] == 2


class TestAttach:
    def test_attach_aligns_after_now(self):
        sim = Simulator(seed=1)
        sim.schedule(2.7, noop)
        sim.run(2.7)
        scraper = MetricsScraper(nothing, interval=1.0).attach(sim)
        assert scraper.next_due == 3.0

    def test_second_scraper_rejected(self):
        sim = Simulator(seed=1)
        MetricsScraper(nothing, interval=1.0).attach(sim)
        with pytest.raises(MetricsError, match="already has a metrics scraper"):
            MetricsScraper(nothing, interval=1.0).attach(sim)

    def test_reattach_same_scraper_is_idempotent(self):
        sim = Simulator(seed=1)
        scraper = MetricsScraper(nothing, interval=1.0).attach(sim)
        assert scraper.attach(sim) is scraper


class TestPiggyback:
    def test_snapshots_at_interval_boundaries(self):
        sim = Simulator(seed=1)
        scraper = MetricsScraper(nothing, interval=1.0).attach(sim)
        for delay in (0.3, 1.1, 2.9):
            sim.schedule(delay, noop)
        sim.run(3.5)
        assert [snap.t for snap in scraper.snapshots] == [1.0, 2.0, 3.0]
        assert sim.now == 3.5

    def test_gauge_callback_sees_interleaved_state(self):
        # Events at 0.5 and 1.5 bump a value; the t=1.0 scrape must observe
        # exactly the first bump — proof scrapes land *between* events.
        sim = Simulator(seed=1)
        state = {"value": 0}
        scraper = MetricsScraper(lambda: ({"v": state["value"]}, {}), interval=1.0).attach(sim)

        def bump():
            state["value"] += 1

        sim.schedule(0.5, bump)
        sim.schedule(1.5, bump)
        sim.run(2.0)
        values = [snap.gauges["v"] for snap in scraper.snapshots]
        assert values == [1, 2]


class TestJsonlCodec:
    @staticmethod
    def _scraper_with_snapshots():
        scraper = MetricsScraper(lambda: ({"g": 1.0}, {}), interval=0.5, label="unit")
        scraper.scrape(0.5)
        scraper.scrape(1.0)
        return scraper

    def test_export_round_trips(self):
        scraper = self._scraper_with_snapshots()
        text = scraper.export_text()
        (section,) = load_jsonl(io.StringIO(text))
        assert section.meta["schema"] == SCHEMA
        assert section.label == "unit"
        assert section.interval == 0.5
        assert [snap.t for snap in section.snapshots] == [0.5, 1.0]
        assert section.snapshots[0].gauges == {"g": 1.0}

    def test_export_is_canonical_json(self):
        text = self._scraper_with_snapshots().export_text()
        for line in text.splitlines():
            assert ": " not in line and ", " not in line  # fixed separators

    def test_export_jsonl_to_path(self, tmp_path):
        scraper = self._scraper_with_snapshots()
        out = tmp_path / "metrics.jsonl"
        assert scraper.export_jsonl(out) == 2
        assert load_jsonl(out)[0].meta["snapshots"] == 2

    @pytest.mark.parametrize(
        "payload,match",
        [
            ("", "empty"),
            ("not json\n", "not JSON"),
            ('[1,2]\n', "expected a JSON object"),
            ('{"schema":"other/v9"}\n', "unsupported schema"),
            ('{"t":1.0}\n', "snapshot before any meta header"),
            (
                '{"schema":"repro.metrics/v1","interval":1.0}\n{"gauges":{}}\n',
                "missing 't'",
            ),
        ],
    )
    def test_malformed_exports_rejected(self, payload, match):
        with pytest.raises(MetricsError, match=match):
            load_jsonl(io.StringIO(payload))


class TestProcessDefault:
    @pytest.fixture(autouse=True)
    def _clean_default(self):
        scraper_mod.disable_default()
        yield
        scraper_mod.disable_default()

    def test_enable_disable_round_trip(self):
        assert scraper_mod.default_interval() is None
        scraper_mod.enable_default(2.0)
        assert scraper_mod.default_interval() == 2.0
        scraper_mod.disable_default()
        assert scraper_mod.default_interval() is None

    def test_enable_rejects_bad_interval(self):
        for interval in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(MetricsError):
                scraper_mod.enable_default(interval)

    def test_export_registered_concatenates_sections(self):
        scraper_mod.enable_default(1.0)
        first = MetricsScraper(nothing, interval=1.0, label="a")
        first.scrape(1.0)
        second = MetricsScraper(nothing, interval=1.0, label="b")
        second.scrape(1.0)
        second.scrape(2.0)
        register(first)
        register(second)
        buf = io.StringIO()
        assert export_registered(buf) == 3
        sections = load_jsonl(io.StringIO(buf.getvalue()))
        assert [section.label for section in sections] == ["a", "b"]
        assert [len(section.snapshots) for section in sections] == [1, 2]

    def test_scenarios_register_only_in_default_mode(self):
        # A scenario that opts in through its own config keeps its scraper
        # to itself; only the process-wide default collects scrapers.
        for seed in (1, 2, 3):
            scenario = ManetScenario(ManetConfig(n_nodes=2, seed=seed, metrics=True))
            assert scenario.metrics is not None
            scenario.stop()
        assert registered() == []

    def test_enable_default_forgets_earlier_scrapers(self):
        scraper_mod.enable_default(1.0)
        register(MetricsScraper(nothing, interval=1.0))
        scraper_mod.enable_default(1.0)
        assert registered() == []
