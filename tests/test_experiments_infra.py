"""Tests for the experiment infrastructure: tables and the CLI."""

import math

import pytest

from repro.experiments import Table
from repro.experiments.__main__ import ARTIFACTS, main


class TestTable:
    def make(self):
        table = Table(title="demo", columns=["a", "b"])
        table.add_row(1, 2.5)
        table.add_row("x", float("nan"))
        return table

    def test_add_row_arity_checked(self):
        table = Table(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_access(self):
        table = self.make()
        assert table.column("a") == [1, "x"]
        with pytest.raises(ValueError):
            table.column("missing")

    def test_to_dicts(self):
        rows = self.make().to_dicts()
        assert rows[0] == {"a": 1, "b": 2.5}

    def test_format_contains_everything(self):
        table = self.make()
        table.add_note("a note")
        text = table.format()
        assert "demo" in text
        assert "2.5" in text
        assert "-" in text  # NaN renders as dash
        assert "note: a note" in text

    def test_format_empty_table(self):
        table = Table(title="empty", columns=["only"])
        text = table.format()
        assert "only" in text

    def test_large_numbers_grouped(self):
        table = Table(title="t", columns=["n"])
        table.add_row(1234567.0)
        assert "1,234,567" in table.format()


class TestCli:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "F3" in out and "E1" in out

    def test_unknown_artifact_rejected(self, capsys):
        assert main(["E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown artifacts" in err

    def test_runs_selected_artifact(self, capsys):
        assert main(["F3"]) == 0
        out = capsys.readouterr().out
        assert "F3: call flow steps" in out
        assert "[F3:" in out

    @pytest.mark.parametrize("interval", ["0", "-1", "inf", "nan"])
    def test_bad_metrics_interval_is_a_usage_error(self, interval, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["E5", "--metrics", str(out), "--metrics-interval", interval])
        assert excinfo.value.code == 2
        assert "metrics interval must be a positive, finite" in capsys.readouterr().err
        assert not out.exists()

    def test_artifact_registry_complete(self):
        # Every quick config must be a subset of what the function accepts.
        for key, (description, quick, full, fn) in ARTIFACTS.items():
            assert description
            assert callable(fn)
            # quick/full kwargs must be valid parameter names
            import inspect

            parameters = inspect.signature(fn).parameters
            for kwargs in (quick, full):
                for name in kwargs:
                    assert name in parameters, f"{key}: bad kwarg {name}"
