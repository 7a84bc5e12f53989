"""Shared helpers for the benchmark harness.

Every benchmark measures one experiment of the paper's evaluation (see the
paper-bench index in the README's "Running the tests and benches").  The simulated measurements are
deterministic, so each is run once (``pedantic`` with a single round); the
pull-stream/StreamLender micro-benchmarks use pytest-benchmark's normal
calibrated timing.

Paper-vs-measured numbers are attached to ``benchmark.extra_info`` so they
appear in the saved benchmark JSON, and printed so they show up in the
console output (``pytest benchmarks/ --benchmark-only -s``).
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def bench_once():
    return run_once
