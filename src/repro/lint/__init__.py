"""repro.lint — determinism & cache-coherence static analyzer.

The reproduction's headline property — bit-identical seeded runs of the
SIPHoc call flow — rests on conventions that ordinary tests cannot see:
all time must come from :attr:`Simulator.now`, all randomness from
:attr:`Simulator.rng`, a node moves only through its epoch-notifying
``position`` setter, and nothing order-sensitive may iterate a bare ``set``.
This package machine-checks those conventions with a stdlib-only AST
analyzer, the way sanitizers and race detectors guard a systems codebase.

Usage::

    python -m repro.lint src/              # lint, text report, exit 1 on findings
    python -m repro.lint --format json src/
    python -m repro.lint --list-rules

Rules (see DESIGN.md §5c for rationale):

========  ====================================================================
DET001    wall-clock reads (``time.time``/``monotonic``/``perf_counter``,
          ``datetime.now``) outside ``netsim/simulator.py`` and ``benchmarks/``
DET002    module-level ``random.*`` calls / un-seeded ``random.Random()``
DET003    iteration over bare ``set``/``frozenset`` in ``netsim/``, ``core/``,
          ``routing/`` (set order feeds event scheduling)
CACHE002  writes to ``Node._position`` that bypass the epoch-notifying setter
SIM001    ``==``/``!=`` on simulation-time expressions (float clock values)
FAULT001  wall-clock or ``random.*`` (even seeded) under ``faults/``
OVR001    unbounded queues in ``netsim/`` and ``core/`` hot paths
========  ====================================================================

Each rule reads one module at a time, so a file's findings do not depend
on what else is linted with it. Findings are suppressed per line with
``# lint: disable=RULEID`` (comma separated ids, or bare
``# lint: disable`` for every rule).
"""

from repro.lint.core import (
    Finding,
    Rule,
    RuleVisitor,
    analyze_file,
    analyze_source,
    iter_python_files,
    run_paths,
)
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "Rule",
    "RuleVisitor",
    "analyze_file",
    "analyze_source",
    "get_rules",
    "iter_python_files",
    "render_json",
    "render_text",
    "run_paths",
]
