"""Rule-by-rule fixture tests for the determinism/cache-coherence analyzer.

Each rule has at least one positive and one negative fixture under
``fixtures/``; path-scoped rules additionally prove their exemptions
(``netsim/simulator.py``, ``benchmarks/`` for DET001; unscoped dirs for
DET003). Suppression comments are exercised end to end.
"""

import json
from pathlib import Path

import pytest

from repro.lint import analyze_file, analyze_source, get_rules, run_paths
from repro.lint.__main__ import main
from repro.lint.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture path (relative to fixtures/) -> exact multiset of expected rule ids
EXPECTED = {
    "det001_bad.py": ["DET001"] * 4,
    "det001_ok.py": [],
    "netsim/simulator.py": [],
    "benchmarks/bench_clock.py": [],
    "det002_bad.py": ["DET002"] * 4,
    "det002_ok.py": [],
    "netsim/det003_bad.py": ["DET003"] * 4,
    "netsim/det003_ok.py": [],
    "det003_unscoped.py": [],
    "cache002_bad.py": ["CACHE002"],
    "cache002_ok.py": [],
    "sim001_bad.py": ["SIM001"] * 3,
    "sim001_ok.py": [],
    "faults/fault001_bad.py": ["DET001", "DET002", "FAULT001", "FAULT001", "FAULT001"],
    "faults/fault001_ok.py": [],
    "fault001_unscoped.py": [],
    "metrics/obs001_bad.py": ["DET001", "DET002", "OBS001", "OBS001", "OBS001"],
    "metrics/obs001_ok.py": [],
    "metrics/profiler.py": [],
    "handover/obs001_bad.py": ["DET001", "DET002", "OBS001", "OBS001", "OBS001"],
    "handover/obs001_ok.py": [],
    "experiments/handover.py": ["DET001", "DET002", "OBS001", "OBS001", "OBS001"],
    "obs001_unscoped.py": [],
    "netsim/ovr001_bad.py": ["OVR001"] * 5,
    "netsim/ovr001_ok.py": [],
    "ovr001_unscoped.py": [],
    "suppressed.py": ["DET001"],
}


def rule_ids(findings):
    return sorted(finding.rule_id for finding in findings)


@pytest.mark.parametrize("relative", sorted(EXPECTED))
def test_fixture_findings(relative):
    findings = analyze_file(FIXTURES / relative)
    assert rule_ids(findings) == sorted(EXPECTED[relative]), "\n".join(
        finding.format() for finding in findings
    )


def test_every_rule_has_a_positive_fixture():
    demonstrated = {rule_id for ids in EXPECTED.values() for rule_id in ids}
    assert demonstrated == {rule.id for rule in ALL_RULES}


def test_fixture_corpus_is_dirty_overall():
    findings = run_paths([FIXTURES])
    assert findings, "fixture corpus must demonstrate findings"


class TestSuppression:
    def test_matching_id_suppresses(self):
        findings = analyze_file(FIXTURES / "suppressed.py")
        lines = [finding.line for finding in findings]
        source = (FIXTURES / "suppressed.py").read_text()
        wrong_id_line = next(
            index
            for index, text in enumerate(source.splitlines(), start=1)
            if "disable=DET002" in text
        )
        assert lines == [wrong_id_line]

    def test_suppression_inside_string_is_ignored(self):
        source = 'import time\nlabel = "# lint: disable=DET001"; y = time.time()\n'
        findings = analyze_source(source, "scratch.py")
        assert rule_ids(findings) == ["DET001"]

    def test_multiple_ids_one_comment(self):
        source = (
            "import time, random\n"
            "x = time.time() + random.random()  # lint: disable=DET001,DET002\n"
        )
        assert analyze_source(source, "scratch.py") == []


class TestResolution:
    def test_module_alias(self):
        source = "import time as clock\nx = clock.monotonic()\n"
        assert rule_ids(analyze_source(source, "scratch.py")) == ["DET001"]

    def test_from_import_alias(self):
        source = "from time import monotonic as mono\nx = mono()\n"
        assert rule_ids(analyze_source(source, "scratch.py")) == ["DET001"]

    def test_from_datetime_import(self):
        source = "from datetime import datetime\nx = datetime.utcnow()\n"
        assert rule_ids(analyze_source(source, "scratch.py")) == ["DET001"]

    def test_unrelated_attribute_chains_clean(self):
        source = "class T:\n    def f(self):\n        return self.rng.random()\n"
        assert analyze_source(source, "scratch.py") == []


def test_syntax_error_reported_as_parse_finding():
    findings = analyze_source("def broken(:\n", "broken.py")
    assert [finding.rule_id for finding in findings] == ["PARSE"]


def test_get_rules_rejects_unknown_id():
    with pytest.raises(KeyError):
        get_rules(["DET999"])


def test_get_rules_subset_is_case_insensitive():
    (rule,) = get_rules(["det001"])
    assert rule.id == "DET001"


class TestCli:
    def test_fixture_corpus_exits_nonzero(self, capsys):
        assert main([str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "findings" in out

    def test_json_format_parses(self, capsys):
        assert main(["--format", "json", str(FIXTURES)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == len(document["findings"]) > 0
        rules_seen = {finding["rule"] for finding in document["findings"]}
        assert {rule.id for rule in ALL_RULES} <= rules_seen

    def test_select_narrows_rules(self, capsys):
        assert main(["--select", "CACHE002", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "CACHE002" in out and "DET001" not in out

    def test_unknown_rule_id_exits_two(self, capsys):
        assert main(["--select", "NOPE", str(FIXTURES)]) == 2

    def test_clean_file_exits_zero(self, capsys):
        assert main([str(FIXTURES / "det001_ok.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_no_files_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out
