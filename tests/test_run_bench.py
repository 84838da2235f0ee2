"""benchmarks/run_bench.py embeds the end-to-end report in the BENCH JSON."""

import json
import subprocess

from benchmarks import run_bench
from benchmarks.run_bench import E2E_ARGS, embed_e2ebench


def stub_result(workload: str, digest: str, run_s: float) -> dict:
    """One workload's entry in an ``e2ebench/e2e.py -o`` report."""
    spread = {"value": run_s, "q1": run_s - 0.5, "q3": run_s + 0.5, "n": 3}
    return {
        "workload": workload,
        "seed": 1,
        "correct": True,
        "problems": [],
        "attempted": 200,
        "failed": 0,
        "digest": digest,
        "end_to_end": {
            "run_s": {**spread, "values": [run_s - 0.5, run_s, run_s + 0.5], "unit": "s"},
            "mos_p50": {"value": 4.4, "q1": 4.4, "q3": 4.4, "n": 1, "values": [4.4], "unit": "MOS"},
        },
        "raw_times": {"run_raw_s": run_s},
        "per_layer": {"kernel.calls": {**spread, "values": [1.0], "unit": "count"}},
    }


def test_embed_keeps_end_to_end_metrics_units_and_digests(tmp_path):
    bench = tmp_path / "BENCH.json"
    bench.write_text(json.dumps({"benchmarks": [{"name": "micro"}], "metrics": {"scrapes": 2}}))
    report = tmp_path / "e2e.json"
    results = [stub_result("city", "0ad35f3f", 1.5), stub_result("call_storm", "4825e42f", 1.25)]
    report.write_text(json.dumps({"results": results}))
    (tmp_path / "e2e.json.city.folded").write_text("run;kernel 12\n")

    embed_e2ebench(str(bench), str(report))

    written = json.loads(bench.read_text())
    assert written["benchmarks"] == [{"name": "micro"}]
    assert written["metrics"] == {"scrapes": 2}
    section = written["e2ebench"]
    assert section["args"] == list(E2E_ARGS)
    assert list(section["workloads"]) == ["city", "call_storm"]
    city = section["workloads"]["city"]
    assert (city["digest"], city["failed"], city["attempted"]) == ("0ad35f3f", 0, 200)
    assert city["end_to_end"] == {
        "run_s": {"value": 1.5, "q1": 1.0, "q3": 2.0, "n": 3, "unit": "s"},
        "mos_p50": {"value": 4.4, "q1": 4.4, "q3": 4.4, "n": 1, "unit": "MOS"},
    }
    assert "per_layer" not in city and "folded" not in json.dumps(written)


def test_failed_e2ebench_run_leaves_the_bench_file_untouched(tmp_path, monkeypatch):
    output = tmp_path / "BENCH.json"
    output.write_text("previous\n")

    def fake_run(command, **kwargs):
        if "pytest" in command:  # the micro-benchmarks pass
            (json_arg,) = [arg for arg in command if arg.startswith("--benchmark-json=")]
            with open(json_arg.split("=", 1)[1], "w", encoding="utf-8") as fh:
                json.dump({"benchmarks": []}, fh)
            return subprocess.CompletedProcess(command, 0)
        return subprocess.CompletedProcess(command, 1)  # e2ebench fails a check

    monkeypatch.setattr(run_bench.subprocess, "run", fake_run)
    monkeypatch.setattr(run_bench, "embed_metrics_summary", lambda output: None)
    assert run_bench.main(["-o", str(output)]) == 1
    assert output.read_text() == "previous\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["BENCH.json"]
