"""Engine-level tests: reporters and logical-line suppression folding."""

import json
from pathlib import Path

import pytest

from repro.lint.__main__ import main
from repro.lint.core import Finding, Suppressions
from repro.lint.reporters import render_json

FIXTURES = Path(__file__).parent / "fixtures"


class TestSuppressionFolding:
    def test_comment_on_continuation_line_covers_statement(self):
        source = (
            "import time\n"
            "x = (\n"
            "    time.time()  # lint: disable=DET001\n"
            ")\n"
        )
        sup = Suppressions(source)
        assert sup.is_suppressed(2, "DET001"), "logical-line start must be covered"
        assert sup.is_suppressed(3, "DET001"), "physical comment line must be covered"

    def test_multi_rule_comment_on_continuation_line(self):
        source = (
            "import time, random\n"
            "y = (time.time()\n"
            "     + random.random())  # lint: disable=DET001, DET002\n"
        )
        sup = Suppressions(source)
        for rule_id in ("DET001", "DET002"):
            assert sup.is_suppressed(2, rule_id)
        assert not sup.is_suppressed(2, "CACHE002")

    def test_continuation_suppression_end_to_end(self):
        from repro.lint import analyze_source

        source = (
            "import time, random\n"
            "y = (time.time()\n"
            "     + random.random())  # lint: disable=DET001,DET002\n"
        )
        assert analyze_source(source, "scratch.py") == []

    def test_comment_on_next_statement_does_not_leak_backwards(self):
        source = (
            "import time\n"
            "x = time.time()\n"
            "y = 1  # lint: disable=DET001\n"
        )
        sup = Suppressions(source)
        assert not sup.is_suppressed(2, "DET001")


class TestReporters:
    def findings(self):
        return [
            Finding("src/a.py", 10, 5, "DET001", "wall-clock call"),
            Finding("src/b.py", 2, 1, "OVR001", "unbounded collections.deque()"),
        ]

    def test_json_schema(self):
        document = json.loads(render_json(self.findings(), files_checked=7))
        assert set(document) == {"count", "files_checked", "findings"}
        assert document["count"] == 2 and document["files_checked"] == 7
        first = document["findings"][0]
        assert set(first) == {"path", "line", "col", "rule", "message"}
        assert first == {
            "path": "src/a.py",
            "line": 10,
            "col": 5,
            "rule": "DET001",
            "message": "wall-clock call",
        }


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_all_formats_deterministic_in_process(fmt, tmp_path, capsys):
    args = ["--format", fmt, str(FIXTURES)]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first
