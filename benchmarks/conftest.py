"""Benchmark harness helpers.

:func:`show` prints a paper table and writes it into
``benchmark_tables.txt`` in the repository root, so a plain
``pytest benchmarks/ --benchmark-only`` run leaves the full reproduction
report on disk even without ``-s``. A table replaces the section with the
same title line; sections a run does not regenerate (a ``-k`` or one-file
run) are kept as they were. Two blank lines separate sections, since a
report (O1's sweep, R1's chaos run) may hold single blank lines.
"""

from __future__ import annotations

import os

import pytest

_RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmark_tables.txt")


#: Title line -> table text, in file order.
_sections: dict[str, str] = {}

_SEPARATOR = "\n\n\n"


@pytest.fixture(scope="session", autouse=True)
def _load_results_file():
    _sections.clear()
    try:
        with open(_RESULTS_PATH, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        text = ""
    for block in text.split(_SEPARATOR):
        block = block.strip("\n")
        if block:
            _sections[block.split("\n", 1)[0]] = block
    yield


def show(text: str) -> None:
    print()
    print(text)
    text = text.strip("\n")
    assert _SEPARATOR not in text, "a table may not hold two blank lines in a row"
    _sections[text.split("\n", 1)[0]] = text
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        handle.write(_SEPARATOR.join(_sections.values()) + "\n")
