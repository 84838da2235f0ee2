"""Intra-procedural dataflow and escape analysis for the whole-program pass.

This module answers, per function, the questions the SHARD rule family
needs: which locals hold seeded RNG objects and where do they escape to?
Which nested closures capture a ``Simulator``/``WirelessMedium`` reference
and do they leak out of the function into module-global state? Which
module globals does the function write at runtime — locally or across a
module boundary? Which attribute assignments store unpicklable values
(open files, lambdas, generators)?

Everything extracted here is plain data (:class:`FunctionFlow`,
:class:`ClassFlow`, :class:`ModuleFlow`) that serializes to JSON, because
the incremental cache stores these summaries per content hash and the
cross-module pass in :mod:`repro.lint.graph` must be able to run without
re-parsing unchanged files.

The analysis is deliberately conservative and syntactic: no fixpoints, no
aliasing beyond single assignment chains. False negatives are acceptable
(the rules certify known-risky *patterns*, they are not a soundness
proof); false positives are not, because ``tools/check.sh`` enforces a
clean tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "ClassFlow",
    "FunctionFlow",
    "ModuleFlow",
    "analyze_module",
]

#: Attribute names whose bearer is treated as a simulator/kernel reference.
SIM_PARAM_NAMES = frozenset({"sim", "simulator", "kernel", "medium"})

#: Type names (terminal identifier) that tag a value as a simulator/kernel
#: or radio-medium reference.
SIM_TYPE_NAMES = frozenset({"Simulator", "WirelessMedium"})

#: ``random.Random`` consumer methods: a parameter these are called on is
#: an RNG sink, so passing the global ``random`` module into it smuggles
#: process-global randomness past DET002's per-module view.
RNG_METHODS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Constructor spellings that produce a mutable container / allocator.
#: Maps resolved dotted name (or syntactic kind) to a human-readable kind.
MUTABLE_CONSTRUCTORS = {
    "bytearray": "bytearray",
    "collections.Counter": "counter-dict",
    "collections.OrderedDict": "dict",
    "collections.defaultdict": "dict",
    "collections.deque": "deque",
    "dict": "dict",
    "itertools.count": "id counter",
    "list": "list",
    "set": "set",
}

#: Dotted prefixes that mark a module-level binding as registered with the
#: global-state registry (repro.globalstate) and therefore shard-aware.
REGISTRY_PREFIXES = ("repro.globalstate.",)
REGISTRY_FACTORY_SUFFIXES = (
    ".registry.counter",
    ".registry.mapping",
    ".registry.sequence",
    ".registry.register",
)


def _dotted(node: ast.expr, import_map: dict[str, str]) -> str | None:
    """Resolve an attribute chain through the import map (cf. FileContext)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(import_map.get(node.id, node.id))
    parts.reverse()
    return ".".join(parts)


def is_registry_call(value: ast.expr, import_map: dict[str, str]) -> bool:
    """True if ``value`` is a call into the repro.globalstate registry."""
    if not isinstance(value, ast.Call):
        return False
    name = _dotted(value.func, import_map)
    if name is None:
        return False
    return name.startswith(REGISTRY_PREFIXES) or name.endswith(REGISTRY_FACTORY_SUFFIXES)


def mutable_kind(value: ast.expr, import_map: dict[str, str]) -> str | None:
    """Classify ``value`` as a mutable-container constructor, or ``None``."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        name = _dotted(value.func, import_map)
        if name is not None:
            return MUTABLE_CONSTRUCTORS.get(name)
    return None


@dataclass
class FunctionFlow:
    """Per-function dataflow facts, JSON-serializable."""

    qualname: str
    line: int
    is_generator: bool = False
    params: list[str] = field(default_factory=list)
    #: Params that have RNG consumer methods called on them.
    rng_consuming_params: list[str] = field(default_factory=list)
    #: Seeded ``random.Random(seed)`` locals -> constructor-call sinks they
    #: are passed into: ``[{name, line, col, sinks: [{callee, line, col}]}]``.
    rng_flows: list[dict[str, Any]] = field(default_factory=list)
    #: Sim-capturing closures that escape to module scope:
    #: ``[{line, col, closure, captures, via}]``.
    closure_escapes: list[dict[str, Any]] = field(default_factory=list)
    #: Module globals this function writes at runtime: ``[{name, line, col, how}]``.
    global_writes: list[dict[str, Any]] = field(default_factory=list)
    #: Writes to another module's top-level binding:
    #: ``[{module, name, line, col, how}]`` (module is the *resolved dotted*
    #: spelling from this module's import map).
    external_writes: list[dict[str, Any]] = field(default_factory=list)
    #: Call sites passing the bare ``random`` module as an argument:
    #: ``[{callee, line, col, arg_position, keyword}]``.
    random_module_args: list[dict[str, Any]] = field(default_factory=list)
    #: Unpicklable values stored on object attributes:
    #: ``[{owner, attr, line, col, kind}]`` where owner is ``"self"``, a
    #: dotted class name (local constructor-bound variable), or ``"?"``.
    unpicklable_attr_assigns: list[dict[str, Any]] = field(default_factory=list)
    #: ``self.x = ClassName(...)`` composition edges (dotted callee names).
    self_compositions: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "is_generator": self.is_generator,
            "params": self.params,
            "rng_consuming_params": sorted(self.rng_consuming_params),
            "rng_flows": self.rng_flows,
            "closure_escapes": self.closure_escapes,
            "global_writes": self.global_writes,
            "external_writes": self.external_writes,
            "random_module_args": self.random_module_args,
            "unpicklable_attr_assigns": self.unpicklable_attr_assigns,
            "self_compositions": sorted(set(self.self_compositions)),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FunctionFlow":
        return cls(**data)


@dataclass
class ClassFlow:
    """Per-class facts: bases, composition edges, schedulability."""

    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    #: True when any method calls an attribute starting with ``schedule`` —
    #: the class arms events on a kernel, so it is independently schedulable.
    schedulable: bool = False
    #: Dotted names of classes instantiated and stored on ``self``.
    compositions: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "line": self.line,
            "bases": self.bases,
            "methods": sorted(self.methods),
            "schedulable": self.schedulable,
            "compositions": sorted(set(self.compositions)),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClassFlow":
        return cls(**data)


@dataclass
class ModuleFlow:
    """Everything the whole-program pass needs to know about one module."""

    #: Module-level mutable bindings: ``[{name, line, col, kind, registered}]``.
    mutable_globals: list[dict[str, Any]] = field(default_factory=list)
    #: All module-level binding names (for escape analysis).
    global_names: list[str] = field(default_factory=list)
    functions: list[FunctionFlow] = field(default_factory=list)
    classes: list[ClassFlow] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "mutable_globals": self.mutable_globals,
            "global_names": sorted(self.global_names),
            "functions": [fn.to_dict() for fn in self.functions],
            "classes": [cls_.to_dict() for cls_ in self.classes],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModuleFlow":
        return cls(
            mutable_globals=data["mutable_globals"],
            global_names=list(data["global_names"]),
            functions=[FunctionFlow.from_dict(d) for d in data["functions"]],
            classes=[ClassFlow.from_dict(d) for d in data["classes"]],
        )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _iter_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Nodes lexically in ``node``'s scope, not descending into nested scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(child))


def _assigned_names(scope: ast.AST) -> set[str]:
    """Names bound (assigned, for-target, with-target, ...) in this scope."""
    names: set[str] = set()
    for node in _iter_scope(scope):
        if isinstance(node, (ast.Name,)) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _free_names(func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """Names read inside ``func`` (any depth) that it does not bind itself."""
    bound: set[str] = set()
    if isinstance(func, ast.Lambda):
        args = func.args
    else:
        args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        bound.add(arg.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    read: set[str] = set()
    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
                else:
                    read.add(node.id)
    return read - bound


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _annotation_text(annotation: ast.expr | None) -> str:
    if annotation is None:
        return ""
    try:
        return ast.unparse(annotation)
    except Exception:  # pragma: no cover - defensive
        return ""


def _is_sim_annotation(annotation: ast.expr | None) -> bool:
    text = _annotation_text(annotation)
    return any(name in text for name in SIM_TYPE_NAMES)


#: A plain (possibly dotted, possibly string-quoted) class annotation.
_CLASS_ANNOTATION_RE = re.compile(r"^[\"']?([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)[\"']?$")

#: Annotation spellings that are never project classes.
_NON_CLASS_ANNOTATIONS = frozenset(
    {"int", "float", "str", "bytes", "bool", "object", "None", "Any", "typing.Any"}
)


def _annotation_class(annotation: ast.expr | None, import_map: dict[str, str]) -> str | None:
    """Dotted class name from a simple annotation, or ``None``."""
    match = _CLASS_ANNOTATION_RE.match(_annotation_text(annotation))
    if match is None:
        return None
    text = match.group(1)
    if text in _NON_CLASS_ANNOTATIONS:
        return None
    head, _, tail = text.partition(".")
    resolved_head = import_map.get(head, head)
    return f"{resolved_head}.{tail}" if tail else resolved_head


def _terminal(name: str) -> str:
    return name.rsplit(".", 1)[-1]


class _FunctionAnalyzer:
    """Single-pass extraction over one function body."""

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        import_map: dict[str, str],
        module_globals: set[str],
        imported_module_aliases: dict[str, str],
    ) -> None:
        self.func = func
        self.import_map = import_map
        self.module_globals = module_globals
        self.imported_module_aliases = imported_module_aliases
        self.flow = FunctionFlow(qualname=qualname, line=func.lineno, params=_param_names(func))
        self.declared_global: set[str] = set()
        self.locals: set[str] = set()
        self.sim_locals: set[str] = set()
        self.rng_locals: dict[str, dict[str, Any]] = {}
        #: local name -> dotted class name it was constructed from
        self.class_locals: dict[str, str] = {}
        #: nested def/lambda name -> set of sim names it captures
        self.sim_closures: dict[str, set[str]] = {}

    # -- helpers ----------------------------------------------------------

    def dotted(self, node: ast.expr) -> str | None:
        return _dotted(node, self.import_map)

    def _is_random_module(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Name)
            and node.id not in self.locals
            and self.import_map.get(node.id, None) == "random"
        )

    def _tag_sim_sources(self) -> None:
        args = self.func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg in SIM_PARAM_NAMES or _is_sim_annotation(arg.annotation):
                self.sim_locals.add(arg.arg)
            # Annotated params participate in owner/class tracking: writing
            # an attribute on `call: IncomingCall` is a store into that class.
            annotated = _annotation_class(arg.annotation, self.import_map)
            if annotated is not None:
                self.class_locals[arg.arg] = annotated

    def _value_is_sim(self, value: ast.expr) -> bool:
        if isinstance(value, ast.Name) and value.id in self.sim_locals:
            return True
        if isinstance(value, ast.Call):
            name = self.dotted(value.func)
            if name is not None and _terminal(name) in SIM_TYPE_NAMES:
                return True
        if isinstance(value, ast.Attribute) and value.attr in SIM_PARAM_NAMES:
            return True
        return False

    # -- extraction passes -------------------------------------------------

    def run(self) -> FunctionFlow:
        self._tag_sim_sources()
        self.flow.is_generator = any(
            isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _iter_scope(self.func)
        )
        statements = list(_iter_scope(self.func))
        # Pass 1: name binding, global decls, value tagging.
        for node in statements:
            if isinstance(node, ast.Global):
                self.declared_global.update(node.names)
            elif isinstance(node, ast.Assign):
                self._tag_assignment(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._tag_assignment([node.target], node.value)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.locals.add(node.id)
        self.locals -= self.declared_global
        # Nested closures: which capture a sim-tagged name?
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                captured = _free_names(node) & self.sim_locals
                if captured:
                    self.sim_closures[node.name] = captured
        # Pass 2: events.
        for node in statements:
            if isinstance(node, ast.Call):
                self._inspect_call(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._inspect_store(node, target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._inspect_store(node, node.target, node.value)
            elif isinstance(node, ast.AugAssign):
                self._inspect_store(node, node.target, node.value, how="augmented assignment")
            elif isinstance(node, (ast.Delete,)):
                for target in node.targets:
                    self._inspect_store(node, target, None, how="del")
        self.flow.rng_flows = [
            flow for flow in self.rng_locals.values() if flow["sinks"]
        ]
        return self.flow

    def _tag_assignment(self, targets: list[ast.expr], value: ast.expr) -> None:
        single = targets[0] if len(targets) == 1 else None
        if isinstance(single, ast.Name):
            name = single.id
            if name not in self.declared_global:
                self.locals.add(name)
            if self._value_is_sim(value):
                self.sim_locals.add(name)
            if isinstance(value, ast.Call):
                callee = self.dotted(value.func)
                if callee == "random.Random" and (value.args or value.keywords):
                    self.rng_locals[name] = {
                        "name": name,
                        "line": value.lineno,
                        "col": value.col_offset,
                        "sinks": [],
                    }
                elif callee is not None:
                    self.class_locals[name] = callee
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    if node.id not in self.declared_global:
                        self.locals.add(node.id)

    # -- call / store inspection ------------------------------------------

    def _inspect_call(self, node: ast.Call) -> None:
        callee = self.dotted(node.func)
        # RNG consumer params: p.random()/p.choice() on a parameter name.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in RNG_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.flow.params
        ):
            if node.func.value.id not in self.flow.rng_consuming_params:
                self.flow.rng_consuming_params.append(node.func.value.id)
        # The bare `random` module passed as an argument.
        for position, arg in enumerate(node.args):
            if self._is_random_module(arg) and callee is not None:
                self.flow.random_module_args.append(
                    {
                        "callee": callee,
                        "line": node.lineno,
                        "col": node.col_offset,
                        "arg_position": position,
                        "keyword": None,
                    }
                )
        for keyword in node.keywords:
            if keyword.arg is not None and self._is_random_module(keyword.value):
                if callee is not None:
                    self.flow.random_module_args.append(
                        {
                            "callee": callee,
                            "line": node.lineno,
                            "col": node.col_offset,
                            "arg_position": None,
                            "keyword": keyword.arg,
                        }
                    )
        # Seeded-RNG escape into constructor calls.
        if callee is not None:
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if isinstance(arg, ast.Name) and arg.id in self.rng_locals:
                    self.rng_locals[arg.id]["sinks"].append(
                        {"callee": callee, "line": node.lineno, "col": node.col_offset}
                    )
        # next(counter) on a module global, and in-place mutation of module
        # globals / other modules' globals.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "next"
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            target = node.args[0]
            if target.id not in self.locals and target.id in self.module_globals:
                self._record_global_write(node, target.id, "next() draw")
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATING_METHODS:
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id not in self.locals
                and receiver.id in self.module_globals
            ):
                self._record_global_write(node, receiver.id, f".{node.func.attr}()")
            self._maybe_external_write(node, receiver, f".{node.func.attr}()")
            # Closure escape via container mutation: _handlers.append(on_tick).
            if isinstance(receiver, ast.Name) and receiver.id in self.module_globals:
                for arg in node.args:
                    self._maybe_closure_escape(node, arg, f"{receiver.id}.{node.func.attr}()")
            # Composition via container growth: self.stacks.append(NodeStack(...)).
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
            ):
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Call):
                            callee = self.dotted(sub.func)
                            if callee is not None and callee[:1].isalpha():
                                self.flow.self_compositions.append(callee)
                        elif isinstance(sub, ast.Name) and sub.id in self.class_locals:
                            self.flow.self_compositions.append(self.class_locals[sub.id])

    def _record_global_write(self, node: ast.AST, name: str, how: str) -> None:
        self.flow.global_writes.append(
            {
                "name": name,
                "line": getattr(node, "lineno", 1),
                "col": getattr(node, "col_offset", 0),
                "how": how,
            }
        )

    def _maybe_external_write(self, node: ast.AST, target: ast.expr, how: str) -> None:
        """Record ``other_module.binding`` writes (attribute on a module alias)."""
        if not isinstance(target, ast.Attribute):
            return
        base = target.value
        if not isinstance(base, ast.Name) or base.id in self.locals:
            return
        module = self.imported_module_aliases.get(base.id)
        if module is None:
            return
        self.flow.external_writes.append(
            {
                "module": module,
                "name": target.attr,
                "line": getattr(node, "lineno", 1),
                "col": getattr(node, "col_offset", 0),
                "how": how,
            }
        )

    def _maybe_closure_escape(self, node: ast.AST, value: ast.expr, via: str) -> None:
        captured: set[str] = set()
        closure = ""
        if isinstance(value, ast.Name) and value.id in self.sim_closures:
            captured = self.sim_closures[value.id]
            closure = value.id
        elif isinstance(value, ast.Lambda):
            captured = _free_names(value) & self.sim_locals
            closure = "<lambda>"
        if captured:
            self.flow.closure_escapes.append(
                {
                    "line": getattr(node, "lineno", 1),
                    "col": getattr(node, "col_offset", 0),
                    "closure": closure,
                    "captures": sorted(captured),
                    "via": via,
                }
            )

    def _inspect_store(
        self, stmt: ast.AST, target: ast.expr, value: ast.expr | None, how: str = "assignment"
    ) -> None:
        # global NAME = ... rebinding, NAME[k] = ... on module globals.
        root = target
        while isinstance(root, ast.Subscript):
            root = root.value
        if isinstance(root, ast.Name):
            if root.id in self.declared_global and root.id in self.module_globals:
                self._record_global_write(stmt, root.id, how)
            elif (
                isinstance(target, ast.Subscript)
                and root.id not in self.locals
                and root.id in self.module_globals
            ):
                self._record_global_write(stmt, root.id, "item " + how)
            # Closure escaping by (re)binding a module global.
            if (
                value is not None
                and root.id in self.module_globals
                and root.id not in self.locals
            ):
                self._maybe_closure_escape(stmt, value, f"{root.id} = ...")
        if isinstance(root, ast.Attribute):
            self._maybe_external_write(stmt, root, how)
            if value is not None:
                self._inspect_attr_value(stmt, root, value)

    def _inspect_attr_value(
        self, stmt: ast.AST, target: ast.Attribute, value: ast.expr
    ) -> None:
        """Attribute stores: composition edges and unpicklable values."""
        base = target.value
        owner: str | None = None
        if isinstance(base, ast.Name):
            if base.id == "self":
                owner = "self"
            elif base.id in self.class_locals:
                owner = self.class_locals[base.id]
        if owner is None:
            return
        if owner == "self":
            for node in ast.walk(value):
                if isinstance(node, ast.Call):
                    callee = self.dotted(node.func)
                    if callee is not None and callee[:1].isalpha():
                        self.flow.self_compositions.append(callee)
                elif isinstance(node, ast.Name) and node.id in self.class_locals:
                    self.flow.self_compositions.append(self.class_locals[node.id])
        kind: str | None = None
        if isinstance(value, ast.Lambda):
            kind = "lambda"
        elif isinstance(value, ast.GeneratorExp):
            kind = "generator expression"
        elif isinstance(value, ast.Call):
            callee = self.dotted(value.func)
            if callee in {"open", "io.open"}:
                kind = "open file handle"
        if kind is not None:
            self.flow.unpicklable_attr_assigns.append(
                {
                    "owner": owner,
                    "attr": target.attr,
                    "line": getattr(stmt, "lineno", 1),
                    "col": getattr(stmt, "col_offset", 0),
                    "kind": kind,
                }
            )


def _class_flow(
    node: ast.ClassDef,
    import_map: dict[str, str],
    functions: list[FunctionFlow],
) -> ClassFlow:
    bases = []
    for base in node.bases:
        dotted = _dotted(base, import_map)
        if dotted is not None:
            bases.append(dotted)
    methods = [
        child.name
        for child in node.body
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    schedulable = any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr.startswith("schedule")
        for sub in ast.walk(node)
    )
    prefix = f"{node.name}."
    compositions: list[str] = []
    for flow in functions:
        if flow.qualname.startswith(prefix):
            compositions.extend(flow.self_compositions)
    return ClassFlow(
        name=node.name,
        line=node.lineno,
        bases=bases,
        methods=methods,
        schedulable=schedulable,
        compositions=compositions,
    )


def analyze_module(
    tree: ast.Module,
    import_map: dict[str, str],
) -> ModuleFlow:
    """Extract the whole-program facts for one parsed module."""
    module_globals = _module_level_names(tree)
    imported_module_aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                imported_module_aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                # `from repro.sip import dialog` binds a module object; we
                # cannot know statically, so record the candidate — the
                # project graph checks whether the dotted target is a module.
                imported_module_aliases[local] = f"{module}.{alias.name}" if module else alias.name

    flow = ModuleFlow(global_names=sorted(module_globals))

    # Module-level mutable bindings.
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        kind = mutable_kind(value, import_map)
        registered = is_registry_call(value, import_map)
        if kind is None and not registered:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                flow.mutable_globals.append(
                    {
                        "name": target.id,
                        "line": node.lineno,
                        "col": node.col_offset,
                        "kind": kind or "registered state",
                        "registered": registered,
                    }
                )

    # Functions and methods (one level of class nesting).
    def visit_functions(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                analyzer = _FunctionAnalyzer(
                    node,
                    prefix + node.name,
                    import_map,
                    module_globals,
                    imported_module_aliases,
                )
                flow.functions.append(analyzer.run())
                # Nested defs get their own (shallow) analysis so closures
                # passed around inside helpers are still inspected.
                visit_functions(
                    [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))],
                    prefix + node.name + ".",
                )
            elif isinstance(node, ast.ClassDef):
                visit_functions(node.body, prefix + node.name + ".")

    visit_functions(tree.body, "")

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            flow.classes.append(_class_flow(node, import_map, flow.functions))

    return flow
