"""Analyzer core: findings, suppressions, the visitor framework, the engine.

A :class:`Rule` inspects one module's AST and reports :class:`Finding`\\ s
through a :class:`FileContext`; most rules subclass :class:`RuleVisitor`.
Every rule sees one module at a time, so a file's findings never depend on
which other files are analyzed with it. The engine is
:func:`analyze_source`; :func:`analyze_file` and :func:`run_paths` read
files for it.

Suppression: a trailing ``# lint: disable=DET001`` (comma-separated ids)
or a bare ``# lint: disable`` silences findings reported on that physical
line — or, when the comment sits on a continuation line, on the logical
line it belongs to. Suppressions are per line, never per file: a blanket
opt-out would defeat the determinism contract the analyzer enforces.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Matches ``# lint: disable`` / ``# lint: disable=DET001,CACHE002``.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable(?:\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+))?")

#: Sentinel stored in the suppression table meaning "every rule".
_ALL_RULES = "*"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


class Suppressions:
    """Per-line ``# lint: disable=...`` comments, parsed from the token stream.

    Comments are read with :mod:`tokenize` rather than a regex over raw
    lines so a ``# lint: disable`` inside a string literal is not honoured.
    A comment on a *continuation* line of a multi-line statement also
    registers on the logical line's first physical line, because rules
    report findings at the statement's start.
    """

    def __init__(self, source: str) -> None:
        self._by_line: dict[int, set[str]] = {}
        logical_start: int | None = None
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.NEWLINE:
                    logical_start = None
                    continue
                if token.type == tokenize.COMMENT:
                    match = _SUPPRESS_RE.search(token.string)
                    if match is None:
                        continue
                    ids_text = match.group("ids")
                    lines = {token.start[0]}
                    if logical_start is not None:
                        lines.add(logical_start)
                    for line in lines:
                        line_set = self._by_line.setdefault(line, set())
                        if ids_text is None:
                            line_set.add(_ALL_RULES)
                        else:
                            line_set.update(
                                chunk.strip().upper()
                                for chunk in ids_text.split(",")
                                if chunk.strip()
                            )
                    continue
                if token.type in (
                    tokenize.NL,
                    tokenize.INDENT,
                    tokenize.DEDENT,
                    tokenize.ENCODING,
                    tokenize.ENDMARKER,
                ):
                    continue
                if logical_start is None:
                    logical_start = token.start[0]
        except tokenize.TokenError:
            pass  # unterminated source; the parse error surfaces elsewhere

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        ids = self._by_line.get(line)
        if not ids:
            return False
        return _ALL_RULES in ids or rule_id.upper() in ids


class FileContext:
    """Per-file state shared by every rule: source, imports, findings."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.suppressions = Suppressions(source)
        self.findings: list[Finding] = []
        self.import_map: dict[str, str] = {}

    def build_import_map(self, tree: ast.Module) -> None:
        """Map local names to dotted origins (``m`` -> ``time.monotonic``)."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    self.import_map[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    origin = f"{module}.{alias.name}" if module else alias.name
                    self.import_map[local] = origin

    def resolve_dotted(self, node: ast.expr) -> str | None:
        """Dotted name of an expression, resolved through the import map.

        ``datetime.now`` with ``from datetime import datetime`` resolves to
        ``datetime.datetime.now``; non-name expressions resolve to ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.import_map.get(node.id, node.id)
        parts.append(base)
        parts.reverse()
        return ".".join(parts)

    def report(self, rule: "Rule", node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if not self.suppressions.is_suppressed(line, rule.id):
            self.findings.append(Finding(self.path, line, col + 1, rule.id, message))


class Rule:
    """Base class for analyzer rules.

    Subclasses set :attr:`id`, :attr:`title` and :attr:`rationale`, narrow
    :meth:`applies_to` if path-scoped, and either provide a
    :attr:`visitor_class` (a :class:`RuleVisitor` subclass) or override
    :meth:`check` for whole-module analyses.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    visitor_class: "type[RuleVisitor] | None" = None

    def applies_to(self, path: Path) -> bool:
        return True

    def check(self, tree: ast.Module, ctx: FileContext) -> None:
        if self.visitor_class is None:  # pragma: no cover - abstract misuse
            raise NotImplementedError(f"{self.id}: no visitor_class and no check()")
        self.visitor_class(self, ctx).visit(tree)


class RuleVisitor(ast.NodeVisitor):
    """``ast.NodeVisitor`` with class/function scope stacks.

    Subclasses override ``visit_*`` for the nodes they care about and call
    ``self.generic_visit(node)`` to keep descending. ``visit_ClassDef`` /
    function visits maintain the stacks; override ``handle_ClassDef`` etc.
    to hook those nodes without losing the bookkeeping.
    """

    def __init__(self, rule: Rule, ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.class_stack: list[ast.ClassDef] = []
        self.function_stack: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    @property
    def current_class(self) -> ast.ClassDef | None:
        return self.class_stack[-1] if self.class_stack else None

    def report(self, node: ast.AST, message: str) -> None:
        self.ctx.report(self.rule, node, message)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node)
        self.handle_ClassDef(node)
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.function_stack.append(node)
        self.handle_FunctionDef(node)
        self.generic_visit(node)
        self.function_stack.pop()

    def handle_ClassDef(self, node: ast.ClassDef) -> None:
        """Hook for subclasses; scope bookkeeping is already done."""

    def handle_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Hook for subclasses; scope bookkeeping is already done."""


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py":
            yield path


def analyze_source(
    source: str, path: str = "<string>", rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Analyze one module's source text with the given (default: all) rules."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        message = f"syntax error: {exc.msg}"
        return [Finding(path, exc.lineno or 1, exc.offset or 1, "PARSE", message)]
    if rules is None:
        from repro.lint.rules import ALL_RULES

        rules = ALL_RULES
    ctx = FileContext(path, source)
    ctx.build_import_map(tree)
    resolved = Path(path)
    for rule in rules:
        if rule.applies_to(resolved):
            rule.check(tree, ctx)
    return sorted(ctx.findings, key=Finding.sort_key)


def analyze_file(path: str | Path, rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Analyze one file on disk."""
    return analyze_source(Path(path).read_text(encoding="utf-8"), str(path), rules)


def run_paths(paths: Iterable[str | Path], rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths``, each on its own."""
    findings = [
        finding for path in iter_python_files(paths) for finding in analyze_file(path, rules)
    ]
    return sorted(findings, key=Finding.sort_key)
