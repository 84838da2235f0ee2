"""The project rule set: DET001–DET003, CACHE002, SIM001, FAULT001, OBS001
and OVR001.

Every rule guards an invariant the simulator's determinism or one of its
caches depends on, and reads one module at a time; DESIGN.md §5c
documents the rationale for each.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.lint.core import FileContext, Rule, RuleVisitor

# ---------------------------------------------------------------------------
# DET001, FAULT001, OBS001 — path-scoped bans on the wall clock and random.*
# ---------------------------------------------------------------------------

#: Resolved dotted names that read the host clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@dataclass(frozen=True)
class ScopedBan:
    """One row of the scoped-ban table: where a rule applies and what it bans.

    A file is in scope when one of its directories is in ``dirs`` or its
    name is in ``files`` (every file when both are empty), unless a
    directory is in ``exempt_dirs`` or its ``(dir, file)`` suffix is in
    ``exempt_files``. Wall-clock calls are always banned; ``random.*``
    calls only when ``random_message`` is set. Messages are formatted with
    the resolved dotted ``name``.
    """

    id: str
    title: str
    rationale: str
    clock_message: str
    random_message: str | None = None
    dirs: frozenset[str] = frozenset()
    files: frozenset[str] = frozenset()
    exempt_dirs: frozenset[str] = frozenset()
    exempt_files: tuple[tuple[str, str], ...] = ()


class _ScopedBanVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        row: ScopedBan = self.rule.row  # type: ignore[attr-defined]
        name = self.ctx.resolve_dotted(node.func)
        if name in _WALL_CLOCK_CALLS:
            self.report(node, row.clock_message.format(name=name))
        elif row.random_message and name is not None and name.startswith("random."):
            self.report(node, row.random_message.format(name=name))
        self.generic_visit(node)


class ScopedBanRule(Rule):
    """The per-file rule for one :class:`ScopedBan` row."""

    visitor_class = _ScopedBanVisitor

    def __init__(self, row: ScopedBan) -> None:
        self.row = row
        self.id, self.title, self.rationale = row.id, row.title, row.rationale

    def applies_to(self, path: Path) -> bool:
        row, parts = self.row, path.parts
        if row.exempt_dirs.intersection(parts) or tuple(parts[-2:]) in row.exempt_files:
            return False
        if not row.dirs and not row.files:
            return True
        return bool(row.dirs.intersection(parts)) or path.name in row.files


#: DET001, FAULT001 and OBS001 differ only in scope, exemptions and bans.
#: FAULT001 and OBS001 are stricter than DET002: even a *seeded*
#: random.Random is banned in their scope, because owning a private RNG
#: forks the random stream, so the run stops being pinned by the scenario
#: seed alone (fault schedules) or observing changes the observed run
#: (metrics, handover drills).
SCOPED_BANS: dict[str, ScopedBan] = {
    row.id: row
    for row in (
        ScopedBan(
            id="DET001",
            title="no wall-clock reads outside the simulator, profiler and benchmarks",
            rationale=(
                "Any code path keyed on host time diverges between runs; only the "
                "simulator core (which defines virtual time), the kernel profiler "
                "(which measures the host by design) and benchmarks may touch the "
                "real clock."
            ),
            clock_message=(
                "wall-clock call {name}(): simulation code must read time "
                "from Simulator.now so seeded runs stay bit-identical"
            ),
            # The simulator owns virtual time; the profiler's entire purpose
            # is wall-time attribution.
            exempt_dirs=frozenset({"benchmarks"}),
            exempt_files=(("netsim", "simulator.py"), ("metrics", "profiler.py")),
        ),
        ScopedBan(
            id="FAULT001",
            title="no wall-clock or random.* calls (even seeded) under faults/",
            rationale=(
                "The fault subsystem's contract is byte-identical schedules for a "
                "given seed, tracing on or off. That only holds if fault code is a "
                "pure function of the plan, Simulator.now and the Simulator.rng it "
                "is passed — any private clock or RNG (seeded or not) breaks the "
                "reproduction of a failure run."
            ),
            clock_message=(
                "wall-clock call {name}() in fault-schedule code: fault "
                "timing must come from the plan and Simulator.now only"
            ),
            random_message=(
                "{name}() in fault-schedule code: channel models and fault "
                "plans must draw exclusively from the Simulator.rng handed "
                "to them, never construct or call their own RNG"
            ),
            dirs=frozenset({"faults"}),
        ),
        ScopedBan(
            id="OBS001",
            title="no wall-clock or random.* calls under metrics/ or handover/ (profiler exempt)",
            rationale=(
                "The observability layers' contract is zero observer effect: "
                "same-seed runs are byte-identical with scraping on or off, and the "
                "§5k handover drills must fingerprint identically across fresh "
                "interpreters. That only holds if metrics and handover-harness code "
                "is a pure function of registry/trace state and Simulator.now — any "
                "wall-clock read or RNG (seeded or not) couples output to the host. "
                "(The policy's own retry jitter draws a *private* integer-seeded "
                "RNG in repro.core.connection, outside this scope by design.) The "
                "one sanctioned exception is metrics/profiler.py, whose entire "
                "purpose is wall-time measurement."
            ),
            clock_message=(
                "wall-clock call {name}() in observability code: scrape and "
                "drill timing must derive from sim time only, or the observer "
                "changes what it observes; wall-time belongs in "
                "metrics/profiler.py"
            ),
            random_message=(
                "{name}() in observability code: instruments, scrapers and "
                "handover drills must be pure readers — no sampling jitter, "
                "no private RNG — so observing cannot perturb the run"
            ),
            dirs=frozenset({"metrics", "handover"}),
            files=frozenset({"handover.py"}),
            exempt_files=(("metrics", "profiler.py"),),
        ),
    )
}


# ---------------------------------------------------------------------------
# DET002 — global random module usage
# ---------------------------------------------------------------------------


class _GlobalRandomVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_dotted(node.func)
        if name == "random.Random":
            if not node.args and not node.keywords:
                self.report(
                    node,
                    "un-seeded random.Random(): seed it from the scenario "
                    "(ultimately Simulator.seed) or draw from Simulator.rng",
                )
        elif name == "random.SystemRandom":
            self.report(
                node,
                "random.SystemRandom() is entropy-backed and never "
                "reproducible; draw from Simulator.rng",
            )
        elif name is not None and name.startswith("random.") and name.count(".") == 1:
            self.report(
                node,
                f"{name}() uses the process-global RNG: randomness must flow "
                "from the simulator's seeded Simulator.rng",
            )
        self.generic_visit(node)


class GlobalRandomRule(Rule):
    id = "DET002"
    title = "no module-level random.* calls or un-seeded random.Random()"
    rationale = (
        "The process-global RNG is shared, import-order dependent and "
        "unseeded; every draw must come from the simulator's seeded "
        "random.Random so a scenario seed pins the whole run."
    )
    visitor_class = _GlobalRandomVisitor


# ---------------------------------------------------------------------------
# DET003 — iteration over bare sets in order-sensitive subsystems
# ---------------------------------------------------------------------------

#: Annotation spellings that make a name set-typed.
_SET_ANNOTATION_RE = re.compile(
    r"^(typing\.)?(set|frozenset|Set|FrozenSet|MutableSet|AbstractSet)\b"
)

#: Builtins whose call on a set is flagged: they materialize an ordered
#: sequence from the set's hash order.
_ORDERED_SINKS = frozenset({"list", "tuple", "enumerate", "iter", "next"})


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - defensive
        return False
    return _SET_ANNOTATION_RE.match(text) is not None


class _SetTypes:
    """Names/attributes known set-typed within one lexical scope."""

    def __init__(self, local_names: set[str], self_attrs: set[str]) -> None:
        self.local_names = local_names
        self.self_attrs = self_attrs

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
        if isinstance(node, ast.Name):
            return node.id in self.local_names
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.self_attrs
            )
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False


def _is_scope_boundary(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))


def _scope_statements(scope: ast.AST) -> list[ast.AST]:
    """All nodes lexically inside ``scope``, not descending into nested scopes."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        out.append(node)
        if not _is_scope_boundary(node):
            stack.extend(ast.iter_child_nodes(node))
    return out


def _collect_local_set_names(scope: ast.AST) -> set[str]:
    """Names assigned a syntactic set (or annotated as one) in this scope."""
    names: set[str] = set()
    syntactic = _SetTypes(set(), set())
    for node in _scope_statements(scope):
        if isinstance(node, ast.Assign) and syntactic.is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation) or (
                node.value is not None and syntactic.is_set_expr(node.value)
            ):
                names.add(node.target.id)
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_set(arg.annotation):
                names.add(arg.arg)
    return names


def _collect_self_set_attrs(class_node: ast.ClassDef) -> set[str]:
    """``self.X`` attributes assigned/annotated set-typed anywhere in the class."""
    attrs: set[str] = set()
    syntactic = _SetTypes(set(), set())
    for node in ast.walk(class_node):
        target: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if syntactic.is_set_expr(node.value):
                target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            if _annotation_is_set(node.annotation) or (
                node.value is not None and syntactic.is_set_expr(node.value)
            ):
                target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            attrs.add(target.attr)
    return attrs


class SetIterationRule(Rule):
    id = "DET003"
    title = "no ordered iteration over bare sets in netsim/, core/, routing/"
    rationale = (
        "Set iteration order follows hash seeds and insertion history, not "
        "the scenario seed; anything it feeds (event scheduling, neighbor "
        "visits, route selection) becomes run-dependent. Iterate "
        "sorted(the_set) instead."
    )

    SCOPED_DIRS = frozenset({"netsim", "core", "routing"})

    def applies_to(self, path: Path) -> bool:
        return any(part in self.SCOPED_DIRS for part in path.parts)

    def check(self, tree: ast.Module, ctx: FileContext) -> None:
        class_attrs: dict[ast.ClassDef, set[str]] = {
            node: _collect_self_set_attrs(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        self._check_scope(tree, ctx, _collect_local_set_names(tree), set())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = self._enclosing_class(tree, node)
                self_attrs = class_attrs.get(owner, set()) if owner else set()
                self._check_scope(
                    node, ctx, _collect_local_set_names(node), self_attrs
                )

    @staticmethod
    def _enclosing_class(
        tree: ast.Module, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> ast.ClassDef | None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and func in node.body:
                return node
        return None

    def _check_scope(
        self,
        scope: ast.AST,
        ctx: FileContext,
        local_names: set[str],
        self_attrs: set[str],
    ) -> None:
        types = _SetTypes(local_names, self_attrs)
        for node in _scope_statements(scope):
            if isinstance(node, ast.For) and types.is_set_expr(node.iter):
                self._flag(ctx, node, node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if types.is_set_expr(generator.iter):
                        self._flag(ctx, node, generator.iter)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDERED_SINKS and node.args:
                    if types.is_set_expr(node.args[0]):
                        self._flag(ctx, node, node.args[0])
            elif isinstance(node, ast.Starred) and types.is_set_expr(node.value):
                self._flag(ctx, node, node.value)

    def _flag(self, ctx: FileContext, node: ast.AST, iter_expr: ast.expr) -> None:
        try:
            shown = ast.unparse(iter_expr)
        except Exception:  # pragma: no cover - defensive
            shown = "<set>"
        ctx.report(
            self,
            node,
            f"ordered iteration over bare set {shown!r}: set order is not "
            "seed-stable; iterate sorted(...) (or keep it unordered via "
            "set/len/membership)",
        )


# ---------------------------------------------------------------------------
# CACHE002 — position writes that bypass the epoch-notifying setter
# ---------------------------------------------------------------------------


def _is_self_or_cls(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in {"self", "cls"}


class _PositionWriteVisitor(RuleVisitor):
    def _flag_target(self, stmt: ast.AST, target: ast.expr) -> None:
        while isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "_position"
            and not _is_self_or_cls(target.value)
        ):
            self.report(
                stmt,
                "direct write to Node._position bypasses the position setter: "
                "the medium's spatial index epoch is never bumped and "
                "neighbor caches go stale; assign node.position instead",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._flag_target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._flag_target(node, node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._flag_target(node, node.target)
        self.generic_visit(node)


class PositionWriteRule(Rule):
    id = "CACHE002"
    title = "no Node position writes that bypass the epoch-notifying setter"
    rationale = (
        "WirelessMedium invalidates its spatial index and neighbor caches on "
        "a position epoch bumped by the Node.position setter; writing "
        "_position directly moves a node without telling the radio layer."
    )
    visitor_class = _PositionWriteVisitor


# ---------------------------------------------------------------------------
# SIM001 — float equality on simulation-time expressions
# ---------------------------------------------------------------------------

#: Identifier (or terminal attribute) spellings that denote a point in
#: simulated time.
_TIME_NAME_RE = re.compile(r"(?:^|_)(now|time|deadline|expires?_at)$")


def _time_named(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name) and _TIME_NAME_RE.search(node.id):
        return node.id
    if isinstance(node, ast.Attribute) and _TIME_NAME_RE.search(node.attr):
        return node.attr
    return None


def _is_none_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class _TimeEqualityVisitor(RuleVisitor):
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_none_constant(left) or _is_none_constant(right):
                continue
            name = _time_named(left) or _time_named(right)
            if name is not None:
                self.report(
                    node,
                    f"exact ==/!= on simulation-time value {name!r}: clock "
                    "values are float sums of delays; use <=/>= bounds or an "
                    "explicit tolerance",
                )
        self.generic_visit(node)


class TimeEqualityRule(Rule):
    id = "SIM001"
    title = "no float equality on simulation-time expressions"
    rationale = (
        "Virtual timestamps are accumulated float arithmetic; two paths to "
        "'the same' instant can differ by one ulp, so equality checks work "
        "on one seed and silently fail on another."
    )
    visitor_class = _TimeEqualityVisitor


# ---------------------------------------------------------------------------
# OVR001 — unbounded queues in overload-sensitive subsystems
# ---------------------------------------------------------------------------

#: Terminal names that declare an intent to queue. Matching assignment
#: targets must not be initialized as unbounded lists.
_QUEUE_NAME_RE = re.compile(r"(queue|backlog|fifo)$", re.IGNORECASE)


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _deque_is_bounded(node: ast.Call) -> bool:
    """``deque(iterable, maxlen)`` or any explicit ``maxlen=`` keyword."""
    if len(node.args) >= 2:
        return True
    return any(kw.arg == "maxlen" for kw in node.keywords)


class _UnboundedQueueVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_dotted(node.func)
        if name == "collections.deque" and not _deque_is_bounded(node):
            self.report(
                node,
                "unbounded collections.deque(): hot-path queues in netsim/ "
                "and core/ must declare a capacity (maxlen=...) or carry an "
                "explicit '# lint: disable=OVR001' justifying the exception",
            )
        self.generic_visit(node)

    def _flag_list_queue(self, stmt: ast.AST, target: ast.expr, value: ast.expr) -> None:
        name = _terminal_name(target)
        if name is None or _QUEUE_NAME_RE.search(name) is None:
            return
        is_bare_list = isinstance(value, ast.List) and not value.elts
        is_list_call = (
            isinstance(value, ast.Call)
            and self.ctx.resolve_dotted(value.func) == "list"
            and not value.args
            and not value.keywords
        )
        if is_bare_list or is_list_call:
            self.report(
                stmt,
                f"queue-named {name!r} initialized as an unbounded list: use "
                "a capacity-bounded structure (deque(maxlen=...) or "
                "InterfaceTxQueue) or '# lint: disable=OVR001' with a reason",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._flag_list_queue(node, target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._flag_list_queue(node, node.target, node.value)
        self.generic_visit(node)


class UnboundedQueueRule(Rule):
    id = "OVR001"
    title = "no unbounded queues in netsim/ and core/ hot paths"
    rationale = (
        "Overload control (§5f) only degrades gracefully if every buffer "
        "between admission and the air interface is bounded; one unbounded "
        "deque or bare-list queue turns backpressure into silent memory "
        "growth and unbounded latency. The simulator's event heap is exempt "
        "(virtual events, not in-flight traffic)."
    )
    visitor_class = _UnboundedQueueVisitor

    SCOPED_DIRS = frozenset({"netsim", "core"})

    def applies_to(self, path: Path) -> bool:
        parts = path.parts
        if len(parts) >= 2 and parts[-2:] == ("netsim", "simulator.py"):
            return False
        return any(part in self.SCOPED_DIRS for part in parts)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ALL_RULES: tuple[Rule, ...] = (
    ScopedBanRule(SCOPED_BANS["DET001"]),
    GlobalRandomRule(),
    SetIterationRule(),
    PositionWriteRule(),
    TimeEqualityRule(),
    ScopedBanRule(SCOPED_BANS["FAULT001"]),
    ScopedBanRule(SCOPED_BANS["OBS001"]),
    UnboundedQueueRule(),
)

_RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}


def get_rules(ids: Sequence[str] | None = None) -> tuple[Rule, ...]:
    """The full registry, or the subset named by ``ids`` (case-insensitive)."""
    if ids is None:
        return ALL_RULES
    selected: list[Rule] = []
    for raw in ids:
        rule = _RULES_BY_ID.get(raw.strip().upper())
        if rule is None:
            known = ", ".join(sorted(_RULES_BY_ID))
            raise KeyError(f"unknown rule id {raw!r} (known: {known})")
        selected.append(rule)
    return tuple(selected)
