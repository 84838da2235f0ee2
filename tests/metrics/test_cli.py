"""Rendering helpers and the ``python -m repro.metrics`` CLI surface."""

import io

import pytest

from repro.metrics.__main__ import build_parser, main
from repro.metrics.render import (
    SPARK_CHARS,
    metric_names,
    render_dash,
    render_table,
    series_for,
    sparkline,
    summarize_sections,
)
from repro.metrics.registry import Histogram
from repro.metrics.scraper import MetricsScraper, load_jsonl


class TestSparkline:
    def test_empty_series(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_all_minimum(self):
        assert sparkline([5.0, 5.0, 5.0]) == SPARK_CHARS[0] * 3

    def test_range_maps_to_glyph_extremes(self):
        line = sparkline([0.0, 7.0])
        assert line[0] == SPARK_CHARS[0]
        assert line[-1] == SPARK_CHARS[-1]

    def test_downsampling_preserves_peaks(self):
        values = [0.0] * 100
        values[37] = 10.0  # one spike mid-series
        line = sparkline(values, width=10)
        assert len(line) == 10
        assert SPARK_CHARS[-1] in line  # the peak survives chunking

    def test_short_series_one_glyph_per_sample(self):
        assert len(sparkline([1.0, 2.0, 3.0], width=60)) == 3


def make_export(label="unit"):
    depths = iter((1.0, 4.0, 2.0))
    hist = Histogram("dist", bounds=(1.0, 2.0))

    def read():
        depth = next(depths)
        hist.observe(depth)
        return {"queue.depth": depth}, {"dist": hist.read()}

    scraper = MetricsScraper(read, interval=1.0, label=label)
    for tick in (1, 2, 3):
        scraper.scrape(float(tick))
    return scraper


class TestSeriesExtraction:
    def test_series_for_each_instrument_kind(self):
        snapshots = make_export().snapshots
        assert series_for(snapshots, "queue.depth") == [
            (1.0, 1.0),
            (2.0, 4.0),
            (3.0, 2.0),
        ]
        assert [v for _, v in series_for(snapshots, "metrics.scrapes")] == [1.0, 2.0, 3.0]
        # histograms yield their running observation count
        assert [v for _, v in series_for(snapshots, "dist")] == [1.0, 2.0, 3.0]
        assert series_for(snapshots, "missing") == []

    def test_metric_names_union_sorted(self):
        snapshots = make_export().snapshots
        assert metric_names(snapshots) == [
            "dist",
            "metrics.scrapes",
            "queue.depth",
        ]


class TestRenderers:
    def test_table_has_min_max_last(self):
        sections = load_jsonl(io.StringIO(make_export().export_text()))
        text = render_table(sections)
        assert "== unit: 3 snapshots @ 1s ==" in text
        line = next(l for l in text.splitlines() if l.startswith("queue.depth"))
        assert line.split() == ["queue.depth", "1", "4", "2"]

    def test_dash_selects_metrics(self):
        sections = load_jsonl(io.StringIO(make_export().export_text()))
        text = render_dash(sections, names=["queue.depth"])
        assert "queue.depth" in text
        assert "metrics.scrapes" not in text
        assert "[1..4]" in text

    def test_summarize_ranks_gauges_by_max(self):
        scraper = MetricsScraper(lambda: ({"low": 1.0, "high": 9.0}, {}), interval=1.0)
        scraper.scrape(1.0)
        summary = summarize_sections([s for s in load_jsonl(
            io.StringIO(scraper.export_text())
        )], top=1)
        assert summary["scrape_count"] == 1
        assert summary["sections"] == 1
        assert summary["top_gauges"] == [{"name": "high", "max": 9.0}]


class TestCli:
    @pytest.fixture
    def export_path(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        make_export().export_jsonl(path)
        return str(path)

    def test_table_command(self, export_path, capsys):
        assert main(["table", export_path]) == 0
        out = capsys.readouterr().out
        assert "queue.depth" in out and "min" in out

    def test_dash_command_with_metric_filter(self, export_path, capsys):
        assert main(["dash", export_path, "--metric", "queue.depth"]) == 0
        out = capsys.readouterr().out
        assert "queue.depth" in out
        assert "metrics.scrapes" not in out

    def test_prom_command(self, export_path, capsys):
        assert main(["prom", export_path]) == 0
        out = capsys.readouterr().out
        assert "# section unit t=3" in out
        assert "repro_queue_depth 2.0" in out
        assert 'repro_dist_bucket{le="+Inf"} 3' in out

    def test_prom_index_selects_snapshot(self, export_path, capsys):
        assert main(["prom", export_path, "--index", "0"]) == 0
        assert "repro_queue_depth 1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_dash_rejects_a_bad_width(self, export_path, width, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dash", export_path, "--width", width])
        assert excinfo.value.code == 2
        assert "--width: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", ["0", "1"])
    def test_profile_rejects_too_few_nodes(self, nodes, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--nodes", nodes])
        assert excinfo.value.code == 2
        assert "--nodes: must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("calls", ["0", "-2"])
    def test_profile_rejects_too_few_calls(self, calls, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--calls", calls])
        assert excinfo.value.code == 2
        assert "--calls: must be at least 1" in capsys.readouterr().err

    def test_profile_rejects_a_negative_top(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--top", "-1"])
        assert excinfo.value.code == 2
        assert "--top: must be at least 0" in capsys.readouterr().err

    def test_prom_index_out_of_range_exits_with_error(self, export_path, capsys):
        with pytest.raises(SystemExit, match="--index 999 is out of range"):
            main(["prom", export_path, "--index", "999"])
        assert capsys.readouterr().out == ""

    def test_missing_file_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["table", str(tmp_path / "absent.jsonl")])

    def test_malformed_file_exits_with_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SystemExit, match="malformed"):
            main(["table", str(path)])

    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        for command in ("table", "dash", "prom", "profile"):
            args = parser.parse_args([command] + ([] if command == "profile" else ["f.jsonl"]))
            assert args.command == command
