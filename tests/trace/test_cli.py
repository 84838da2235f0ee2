"""CLI tests for ``python -m repro.trace``."""

import pytest

from repro.experiments.gates import check_traced_chain_call, traced_chain_call
from repro.trace.__main__ import main
from repro.trace.events import TraceEvent

from tests.trace.test_determinism import run_traced_call


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    scenario = run_traced_call()
    path = tmp_path_factory.mktemp("trace") / "call.jsonl"
    scenario.trace.write_jsonl(str(path))
    return str(path)


class TestSummarize:
    def test_summarize(self, trace_file, capsys):
        assert main(["summarize", trace_file]) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "by category:" in out and "packet" in out

    def test_missing_file_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["summarize", str(tmp_path / "nope.jsonl")])

    def test_malformed_file_exits_with_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"packet.teleport"}\n')
        with pytest.raises(SystemExit, match="malformed"):
            main(["summarize", str(path)])


class TestLadder:
    def test_ladder_renders_call_flow(self, trace_file, capsys):
        assert main(["ladder", trace_file]) == 0
        out = capsys.readouterr().out
        for expected in ("INVITE", "ACK", "BYE"):
            assert expected in out

    def test_list_calls(self, trace_file, capsys):
        assert main(["ladder", trace_file, "--list-calls"]) == 0
        calls = capsys.readouterr().out.split()
        assert calls  # REGISTER dialogs + the INVITE dialog

    def test_single_call_filter(self, trace_file, capsys):
        main(["ladder", trace_file, "--list-calls"])
        last_call = capsys.readouterr().out.split()[-1]
        assert main(["ladder", trace_file, "--call-id", last_call]) == 0
        assert "|" in capsys.readouterr().out


class TestFilter:
    def test_filter_emits_valid_jsonl(self, trace_file, capsys):
        assert main(["filter", trace_file, "--category", "sip", "--kind", "sip.msg_tx"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert lines
        from repro.trace.events import parse_jsonl_line

        events = [parse_jsonl_line(line) for line in lines]
        assert all(isinstance(e, TraceEvent) and e.kind == "sip.msg_tx" for e in events)

    def test_filter_render_timeline(self, trace_file, capsys):
        assert main(["filter", trace_file, "--category", "aodv", "--render"]) == 0
        assert "aodv." in capsys.readouterr().out

    def test_filter_time_window(self, trace_file, capsys):
        assert main(["filter", trace_file, "--since", "1e9"]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestPackets:
    def test_packets(self, trace_file, capsys):
        assert main(["packets", trace_file]) == 0
        assert "delivered" in capsys.readouterr().out

    def test_packets_dropped_only(self, trace_file, capsys):
        assert main(["packets", trace_file, "--dropped"]) == 0
        out = capsys.readouterr().out
        assert "delivered" not in out


class TestSmoke:
    def test_smoke_passes_and_writes_trace(self, tmp_path, capsys):
        call = traced_chain_call()
        assert check_traced_chain_call(call) == []
        out_path = tmp_path / "smoke.jsonl"
        out_path.write_text(call.jsonl)
        assert main(["summarize", str(out_path)]) == 0
        assert "by category:" in capsys.readouterr().out
        assert out_path.read_text().count("\n") > 100
