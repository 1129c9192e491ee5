#!/usr/bin/env bash
# The benchmark's single CI entry point: its own tests (tracer
# arithmetic, BENCHMARK.json contract, smoke run of all six workloads,
# a failing check), then one full traced + untraced run whose printed
# metric names are checked against BENCHMARK.json.  Not wired into
# .github/workflows/ yet (ROADMAP item 1).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m pytest perfbench/tests -q
python -m perfbench --seed 1 --trace
