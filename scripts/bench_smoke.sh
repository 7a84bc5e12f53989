#!/usr/bin/env bash
# Fast benchmark smoke: executes the micro-benchmarks and the pool-speedup
# benches in REPRO_BENCH_FAST mode with pytest-benchmark timing disabled, so
# every bench code path runs in seconds.  CI calls this after tier-1.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export REPRO_BENCH_FAST=1

python -m pytest \
    benchmarks/bench_core_micro.py \
    benchmarks/bench_pool_speedup.py \
    benchmarks/bench_unordered_scaling.py \
    benchmarks/bench_event_loop.py \
    benchmarks/bench_shm_transport.py \
    benchmarks/bench_ws_transport.py \
    benchmarks/bench_obs_overhead.py \
    benchmarks/bench_matrix_scale.py \
    -q --benchmark-disable "$@"
