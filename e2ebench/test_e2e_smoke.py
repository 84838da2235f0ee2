"""Smoke test of the end-to-end benchmark at reduced sizes.

    python3 -m pytest e2ebench/test_e2e_smoke.py -q

Runs ``e2e.py --smoke`` (one timed and one traced run per workload) and the
single-workload form once per mode, then checks the result schema, digest agreement
between traced and untraced runs, that every metric named in
``BENCHMARK.json`` is reported with its unit, and ``bench_diff.py``'s
verdicts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
E2E = HERE / "e2e.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_NAMES = [metric["name"] for metric in SPEC["end_to_end"]]
LAYER_NAMES = [metric["name"] for metric in SPEC["per_layer"]]
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}

sys.path.insert(0, str(HERE))
import bench_diff  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[subprocess.CompletedProcess, dict, Path]:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = run(str(E2E), "--smoke", "-o", str(out))
    return proc, json.loads(out.read_text()), out


def test_smoke_passes_every_check(smoke) -> None:
    proc, data, _ = smoke
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [r["workload"] for r in data["results"]] == [w["name"] for w in SPEC["workloads"]]
    for result in data["results"]:
        assert result["correct"], result["problems"]
        assert result["failed"] == 0
        assert result["attempted"] > 0
        assert (result["timed_runs"], result["traced_runs"]) == (1, 1)


def test_traced_and_untraced_digests_agree(smoke) -> None:
    _, data, _ = smoke
    for result in data["results"]:
        # summarize() sets the digest only when every run of the seed agrees.
        assert result["digest"] is not None and len(result["digest"]) == 64


def test_every_benchmark_metric_is_reported_with_its_unit(smoke) -> None:
    proc, data, _ = smoke
    for result in data["results"]:
        assert sorted(result["end_to_end"]) == sorted(E2E_NAMES)
        assert sorted(result["per_layer"]) == sorted(LAYER_NAMES)
        for group in ("end_to_end", "per_layer"):
            for name, metric in result[group].items():
                assert metric["unit"] == UNITS[name]
                assert set(metric) >= {"value", "q1", "q3", "n", "values"}
    for name in E2E_NAMES + LAYER_NAMES:
        assert name in proc.stdout


def test_folded_stacks_are_written(smoke) -> None:
    _, data, out = smoke
    for result in data["results"]:
        folded = Path(f"{out}.{result['workload']}.folded").read_text().splitlines()
        assert folded and all(line.startswith("run") for line in folded)


def test_city_time_is_split_across_layers(smoke) -> None:
    _, data, _ = smoke
    city = next(r for r in data["results"] if r["workload"] == "city")
    assert city["per_layer"]["trace.top_row_share"]["value"] < 0.5
    assert city["per_layer"]["hooks.siphoc-slp-aodv-in.calls"]["value"] > 0
    assert city["per_layer"]["aodv.rx.calls"]["value"] > 0


@pytest.mark.parametrize("trace, names", [("0", E2E_NAMES), ("1", LAYER_NAMES)])
def test_single_workload_form_prints_one_result_line(trace: str, names: list[str]) -> None:
    proc = run(
        str(E2E), "--workload", "call_storm", "--seed", "2", "--seconds", "0",
        "--trace", trace, "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == UNITS[name]


def test_fails_without_the_simulator_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(
        str(Path(HERE.name) / "e2e.py"), "--workload", "city", "--seed", "1",
        "--seconds", "1", "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_bench_diff_verdicts(smoke) -> None:
    _, data, out = smoke
    assert bench_diff.main([str(out), str(out)]) == 0
    base = {"value": 10.0, "q1": 9.9, "q3": 10.1, "values": [9.9, 10.0, 10.1]}
    slower = {"value": 13.0, "q1": 12.9, "q3": 13.1, "values": [12.9, 13.0, 13.1]}
    noisy = {"value": 13.0, "q1": 8.0, "q3": 16.0, "values": [8.0, 13.0, 16.0]}
    faster = {"value": 5.0, "q1": 4.0, "q3": 8.0, "values": [4.0, 5.0, 8.0]}
    assert bench_diff.verdict(base, base, "lower", 0.1) == "same"
    assert bench_diff.verdict(base, slower, "lower", 0.1) == "worse"
    assert bench_diff.verdict(base, slower, "higher", 0.1) == "better"
    assert bench_diff.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert bench_diff.verdict(base, faster, "lower", 0.1) == "better"
    before, after = json.loads(json.dumps(data)), json.loads(json.dumps(data))
    before["results"][0]["end_to_end"]["run_s"].update(base)
    after["results"][0]["end_to_end"]["run_s"].update(slower)
    lines, any_worse = bench_diff.compare(before, after, SPEC)
    assert any_worse and any(line.strip().startswith("run_s") and "worse" in line for line in lines)
