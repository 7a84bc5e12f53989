"""Self-test of the perf suite: schema and determinism, never timing.

Runs the whole suite once in ``--quick`` mode (tiny windows, a 50-volunteer
fleet) and checks that every workload reports every metric ``BENCHMARK.json``
and the catalogues name, with its unit, and that nothing failed.  The input
generators must repeat for a seed and differ across seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# perf/ is a script directory, not a package: its modules import each other
# by bare name, exactly as they do under ``python3 perf/run.py``
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import replay  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_catalogues():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert declared["paths"] == ["perf"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == workloads.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == workloads.PASS_LAYER + replay.CATALOG


def test_input_generators_are_seeded():
    for spec in workloads.LIVE.values():
        first, _check = workloads.make_inputs(spec, 11)
        again, _check = workloads.make_inputs(spec, 11)
        other, _check = workloads.make_inputs(spec, 12)
        assert [first(i) for i in range(4)] == [again(i) for i in range(4)]
        assert first(0) != other(0)
        assert first(0) != first(1)


def test_quick_suite_reports_every_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    printed = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in workloads.WORKLOADS:
            printed[(parts[0], parts[1])] = parts[3]
    expected = workloads.END_TO_END + workloads.PASS_LAYER + replay.CATALOG
    for name in workloads.WORKLOADS:
        for metric, unit, *_rest in expected:
            assert printed.get((name, metric)) == unit, (name, metric)
        assert printed.get((name, "failed_share")) == "ratio"

    with open(tmp_path / "result.json") as handle:
        result = json.load(handle)
    assert {"git_sha", "seed", "machine", "end_to_end", "workloads"} <= set(result)
    assert {"nproc", "python", "platform"} <= set(result["machine"])
    for name in workloads.WORKLOADS:
        entry = result["workloads"][name]
        assert entry["failed"] == 0 and entry["faults"] == [], (name, entry["faults"])
        assert entry["attempted"] >= 1 and entry["wall_s"] > 0
        for zero in ("core.values_relent", "net.shm_ring.fallbacks", "sched.stalls"):
            assert entry["metrics"][zero] == 0, (name, zero)
        assert (tmp_path / f"trace_{name}.json").exists()


def test_a_run_leaves_no_process_behind(tmp_path):
    """The shm workload starts a resource tracker; it must be gone at exit."""
    done = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--workload",
         "tiles_shm", "--out", str(tmp_path)],
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    done.communicate(timeout=120)
    left = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == done.pid:  # same session as the run
            left.append((entry, fields[0]))
    assert done.returncode == 0 and left == []
