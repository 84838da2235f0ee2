#!/usr/bin/env bash
# Repo gate: determinism lint, style lint, test suite, end-to-end benchmark
# smoke — in order, failing fast. The seeded gate workloads
# (src/repro/experiments/gates.py) run inside the test suite against the
# digests in tests/netsim/golden.json: every gate runs in two fresh
# interpreters at once, one in sorted order and one in reverse order, each
# under its own hash seed and with nothing reset between gates.
#
# Usage: tools/check.sh
#
# ruff and mypy come from the dev extra (`pip install -e '.[dev]'`); when not
# installed those steps are reported and skipped so the determinism lint and
# the test suite still gate the change.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro.lint (determinism, cache coherence) =="
python -m repro.lint src/

echo "== ruff check =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src/
else
    echo "ruff not installed (pip install -e '.[dev]') — skipped"
fi

echo "== mypy (src/repro/lint, src/repro/netsim) =="
if command -v mypy >/dev/null 2>&1; then
    mypy src/repro/lint src/repro/netsim
else
    echo "mypy not installed (pip install -e '.[dev]') — skipped"
fi

echo "== pytest (tier-1 + micro-benchmarks, each benchmark run once) =="
python -m pytest -x -q tests benchmarks/test_bench_micro.py --benchmark-disable

echo "== e2ebench smoke (traced and untraced digests agree, every call reaches a final state) =="
python3 -m pytest e2ebench/test_e2e_smoke.py -q
