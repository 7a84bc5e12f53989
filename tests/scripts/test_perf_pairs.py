"""The plan ``scripts/perf_pairs.py --dry-run`` prints for parent/change pairs."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.skipif(
    not os.path.exists(os.path.join(ROOT, ".git")), reason="needs a git checkout"
)
def test_dry_run_plans_alternating_pairs_on_consecutive_seeds():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "perf_pairs.py"), "HEAD",
         "--workload", "tiles_shm", "--pairs", "3", "--seconds", "5",
         "--seed-base", "10", "--dry-run"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("parent: git archive HEAD (")
    assert lines[0].endswith("perf/ and BENCHMARK.json from the working tree")
    assert lines[1] == "change: the working tree"
    run = "python3 perf/run.py --workload tiles_shm --seed {} --seconds 5 --trace 0"
    assert lines[2:] == [
        "pair 1 seed 10: parent then change: " + run.format(10),
        "pair 2 seed 11: change then parent: " + run.format(11),
        "pair 3 seed 12: parent then change: " + run.format(12),
    ]
