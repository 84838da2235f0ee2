"""Every ``python -m repro...`` command the docs show names something that runs,
and every ``python`` block of README.md runs.

README.md, DESIGN.md, EXPERIMENTS.md and the verify notes show commands in
code spans and blocks. Each must name a module that ``python -m`` can run,
each artifact a ``python -m repro.experiments`` command names must be in
``ARTIFACTS``, and each gate a ``python -m repro.experiments.gates``
command names must be in ``GATES``, so the docs cannot point at a removed
CLI, artifact or gate. Placeholders (``<ID>``, ``[<name> ...]``) are skipped.
A README block whose last line is a comment shows what the block prints.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.gates import GATES

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")

#: A command runs to the end of its code span, line or shell comment.
COMMAND = re.compile(r"python3? -m (repro(?:\.\w+)*)([^`\n#]*)")

#: A fenced ``python`` block, without its fences.
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)

#: ``python -m repro.experiments`` options that take a value.
VALUE_OPTIONS = ("--trace", "--metrics", "--metrics-interval")


def commands(doc: str) -> list[tuple[int, str, str]]:
    """(line, module, arguments) of each command in ``doc``."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(1), match.group(2))
        for match in COMMAND.finditer(text)
    ]


def runnable(module: str) -> bool:
    """``python -m module`` finds a package with ``__main__`` or a module with a main guard."""
    try:
        spec = importlib.util.find_spec(module)
    except ModuleNotFoundError:
        return False
    if spec is None or spec.origin is None:
        return False
    if spec.submodule_search_locations is not None:
        return importlib.util.find_spec(f"{module}.__main__") is not None
    return 'if __name__ == "__main__":' in Path(spec.origin).read_text(encoding="utf-8")


def named(args: str) -> list[str]:
    """The positional arguments of a command, without option values or placeholders."""
    names = []
    tokens = iter(args.split())
    for token in tokens:
        if token in VALUE_OPTIONS:
            next(tokens, None)
        elif not token.startswith("-") and not set("<>[].") & set(token):
            names.append(token)
    return names


def failures(line: int, module: str, args: str) -> list[str]:
    if not runnable(module):
        return [f"line {line}: python -m {module} does not run"]
    if module == "repro.experiments":
        unknown = [name for name in named(args) if name.upper() not in ARTIFACTS]
    elif module == "repro.experiments.gates":
        unknown = [name for name in named(args) if name not in GATES]
    else:
        unknown = []
    return [f"line {line}: python -m {module} names unknown {name}" for name in unknown]


@pytest.mark.parametrize("doc", DOCS)
def test_doc_commands_run(doc):
    found = commands(doc)
    assert found, f"{doc} shows no python -m repro command"
    assert [failure for command in found for failure in failures(*command)] == []


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a block may write files
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [
        (text.count("\n", 0, match.start()) + 2, match.group(1))
        for match in PYTHON_BLOCK.finditer(text)
    ]
    assert blocks, "README.md shows no python block"
    for line, code in blocks:
        exec(compile(code, f"README.md:{line}", "exec"), {"__name__": "readme"})
        printed = capsys.readouterr().out.strip()
        last = code.splitlines()[-1]
        if last.startswith("#"):
            assert printed == last.removeprefix("#").strip(), f"README.md block at line {line}"
