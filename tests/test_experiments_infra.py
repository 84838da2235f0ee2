"""Tests for the experiment infrastructure: tables and the CLI."""

import dataclasses
import inspect

import pytest

from repro.experiments import Table
from repro.experiments.__main__ import main
from repro.experiments.artifacts import ARTIFACTS, check_media


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
        assert "F3: call flow steps (aodv" in out and "F3: call flow steps (olsr" in out
        assert "[F3_aodv:" in out and "FAIL" not in out

    def test_r1_prints_the_recovery_report_not_the_trace(self, capsys):
        assert main(["R1"]) == 0
        out = capsys.readouterr().out
        assert "fault plan:" in out and "gateway failover latency" in out
        assert "post-fault call re-established: yes" in out
        assert "FAIL" not in out
        assert '"kind":"packet.' not in out and len(out) < 5_000

    def test_failed_check_is_printed_and_exits_1(self, capsys, monkeypatch):
        failing = dataclasses.replace(ARTIFACTS["T1"], check=lambda table: ["no provider"])
        monkeypatch.setitem(ARTIFACTS, "T1", failing)
        assert main(["T1"]) == 1
        assert "FAIL T1: no provider" in capsys.readouterr().out

    @pytest.mark.parametrize("interval", ["0", "-1", "inf", "nan"])
    def test_bad_metrics_interval_is_a_usage_error(self, interval, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["E5", "--metrics", str(out), "--metrics-interval", interval])
        assert excinfo.value.code == 2
        assert "metrics interval must be a positive, finite" in capsys.readouterr().err
        assert not out.exists()

    def test_artifact_registry_complete(self):
        # Every parameter set names only parameters its function accepts.
        for key, artifact in ARTIFACTS.items():
            assert artifact.description
            parameters = inspect.signature(artifact.fn).parameters
            for tables in (artifact.tables, artifact.full or {}):
                for kwargs in tables.values():
                    for name in kwargs:
                        assert name in parameters, f"{key}: bad kwarg {name}"


class TestMediaCheck:
    """M1's check is the contrast: only adaptive playout with RED 2 satisfies."""

    def table(self, baseline_mos, recovered_mos):
        columns = ["codec", "policy", "red", "fade_pct", "mos", "m2e_ms", "eff_loss_pct", "recovered"]
        table = Table(title="M1", columns=columns)
        table.add_row("PCMU", "fixed", 0, 4.0, baseline_mos, 82.3, 25.9, 0)
        table.add_row("PCMU", "adaptive", 2, 4.0, recovered_mos, 169.6, 3.8, 37)
        return table

    def test_contrast_passes(self):
        assert check_media(self.table(2.58, 4.01)) == []

    def test_adaptive_red_below_satisfied_fails(self):
        assert check_media(self.table(2.58, 3.5)) == [
            "adaptive/RED 2 at 4.0 % fade did not recover: MOS 3.5"
        ]

    def test_satisfied_baseline_fails(self):
        assert check_media(self.table(3.7, 4.01)) == [
            "fixed/no-RED at 4.0 % fade is satisfied: MOS 3.7"
        ]

    def test_unestablished_call_fails(self):
        assert len(check_media(self.table(float("nan"), float("nan")))) == 2
