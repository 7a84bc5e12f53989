#!/usr/bin/env python3
"""Run one perf workload in parent/change pairs and compare the two sides.

    python scripts/perf_pairs.py REV --workload tiles_shm --pairs 7 \\
        [--seconds 20] [--seed-base 100] [--dry-run]

The *parent* side is ``git archive REV`` unpacked into a temporary
directory; the *change* side is a copy of the working tree (every tracked or
untracked file that ``.gitignore`` does not exclude, edits included).  The
working tree's ``perf/`` and ``BENCHMARK.json`` are copied over the parent,
so both sides run the same benchmark and only the program under test
differs.  Pair *i* (from 0) runs ``python3 perf/run.py --workload W --seed
K+i --seconds S --trace 0`` (the end-to-end metrics) on both sides, the
parent first in even pairs and the change first in odd ones, so a drift of
the host during the session lands on both sides alike.

It prints one line per run (``correct``, ``failed``, ``attempted``), then
per metric each side's median and quartiles, the gap between the medians,
and in how many pairs the change was better (by the metric's ``better`` in
``BENCHMARK.json``).  It exits 1 if any run was not correct or failed an
operation.  Everything it writes goes under a temporary directory that is
removed at the end; nothing is written inside the repository.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True
    ).stdout


def working_tree_files() -> List[str]:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    names = sorted({name for name in listed.decode().split("\0") if name})
    return [name for name in names if os.path.isfile(os.path.join(ROOT, name))]


def copy_files(names: Sequence[str], dest: str) -> None:
    for name in names:
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, name), target)


def is_benchmark_file(name: str) -> bool:
    return name == "BENCHMARK.json" or name.startswith("perf/")


def prepare(rev: str, workdir: str) -> Dict[str, str]:
    """Unpack both sides under *workdir*; returns each side's directory."""
    dirs = {side: os.path.join(workdir, side) for side in SIDES}
    files = working_tree_files()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dirs["parent"], filter="data")
        else:  # pragma: no cover - Pythons before the extraction filters
            archive.extractall(dirs["parent"])
    shutil.rmtree(os.path.join(dirs["parent"], "perf"), ignore_errors=True)
    copy_files([name for name in files if is_benchmark_file(name)], dirs["parent"])
    copy_files(files, dirs["change"])
    return dirs


def run_command(args: argparse.Namespace, seed: int) -> List[str]:
    return [
        sys.executable, "perf/run.py", "--workload", args.workload,
        "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0",
    ]


def plan(args: argparse.Namespace) -> List[Tuple[int, int, Tuple[str, str]]]:
    """``(pair, seed, order)`` for every pair, sides alternating first."""
    return [
        (pair, args.seed_base + pair, SIDES if pair % 2 == 0 else SIDES[::-1])
        for pair in range(args.pairs)
    ]


def run_once(directory: str, command: List[str], seconds: float) -> Dict[str, Any]:
    """One ``perf/run.py``; its last stdout line, or a failed stand-in."""
    try:
        done = subprocess.run(
            command, cwd=directory, capture_output=True, text=True,
            timeout=seconds * 4 + 300,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except (subprocess.TimeoutExpired, ValueError) as exc:
        done, result = None, None
        sys.stderr.write(f"  {exc}\n")
    if not isinstance(result, dict) or "correct" not in result:
        if done is not None:
            sys.stderr.write(done.stderr[-2000:])
        return {"correct": False, "failed": None, "attempted": None, "metrics": {}}
    return result


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(pairs: List[Dict[str, Dict[str, Any]]], better: Dict[str, str]) -> None:
    names: List[str] = []
    for pair in pairs:
        for side in SIDES:
            names.extend(name for name in pair[side]["metrics"] if name not in names)
    print(f"{'metric':42} {'parent median [Q1, Q3]':>30} {'change median [Q1, Q3]':>30}"
          f" {'gap':>10} {'wins':>6}")
    for name in names:
        sides: Dict[str, List[float]] = {side: [] for side in SIDES}
        wins = contested = 0
        for pair in pairs:
            got = {side: pair[side]["metrics"].get(name) for side in SIDES}
            for side in SIDES:
                if got[side] is not None:
                    sides[side].append(got[side]["value"])
            if None in got.values() or name not in better:
                continue
            parent, change = got["parent"]["value"], got["change"]["value"]
            contested += 1
            wins += change > parent if better[name] == "higher" else change < parent
        if not sides["parent"] or not sides["change"]:
            continue
        cells = []
        for side in SIDES:
            q1, q3 = quartiles(sides[side])
            cells.append(f"{statistics.median(sides[side]):.4g} [{q1:.4g}, {q3:.4g}]")
        gap = statistics.median(sides["change"]) - statistics.median(sides["parent"])
        score = f"{wins}/{contested}" if name in better else "?"
        print(f"{name:42} {cells[0]:>30} {cells[1]:>30} {gap:>+10.4g} {score:>6}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scripts/perf_pairs.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("rev", metavar="REV", help="the parent: any git revision")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in declared["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--dry-run", action="store_true",
                        help="print the plan; unpack and run nothing")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        sha = git("rev-parse", "--verify", f"{args.rev}^{{commit}}").decode().strip()
    except subprocess.CalledProcessError as exc:
        parser.error(f"{args.rev!r} is not a commit: {exc.stderr.decode().strip()}")
    print(f"parent: git archive {args.rev} ({sha[:12]}), perf/ and BENCHMARK.json "
          f"from the working tree")
    print("change: the working tree")
    for pair, seed, order in plan(args):
        print(f"pair {pair + 1} seed {seed}: {order[0]} then {order[1]}: "
              + " ".join(["python3"] + run_command(args, seed)[1:]))
    if args.dry_run:
        return 0

    pairs: List[Dict[str, Dict[str, Any]]] = []
    bad = 0
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as workdir:
        if os.path.realpath(workdir).startswith(os.path.realpath(ROOT) + os.sep):
            parser.error(f"the temporary directory {workdir} is inside the repository")
        dirs = prepare(sha, workdir)
        for pair, seed, order in plan(args):
            results = {}
            for side in order:
                result = run_once(dirs[side], run_command(args, seed), args.seconds)
                results[side] = result
                ok = result["correct"] is True and result["failed"] == 0
                bad += not ok
                print(f"run pair {pair + 1} seed {seed} {side}: "
                      f"correct {str(result['correct']).lower()} "
                      f"failed {result['failed']} attempted {result['attempted']}",
                      flush=True)
            pairs.append(results)
    report(pairs, {metric["name"]: metric["better"] for metric in declared["end_to_end"]})
    if bad:
        print(f"{bad} run(s) not correct or with failed operations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
