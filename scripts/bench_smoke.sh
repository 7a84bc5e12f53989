#!/usr/bin/env bash
# Fast benchmark smoke: executes every bench file — the paper-evidence
# benches (Tables 1-2, Figs. 4/10/11/12, the section 5 analyses, the
# ablations) plus the core micro-benchmarks, the event-loop interleaving
# check and the matrix-scale cell — in REPRO_BENCH_FAST mode with
# pytest-benchmark timing disabled, so every bench code path runs in seconds.
# It checks that those paths run and reproduce the paper's shapes; how fast
# the system runs is measured by perf/run.py (see BENCHMARK.json), not here.
# CI calls this after tier-1.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export REPRO_BENCH_FAST=1

python -m pytest benchmarks/bench_*.py -q --benchmark-disable "$@"
