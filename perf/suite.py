"""Command line of the perf suite (entered from ``run.py``)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import adapter
import replay
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

UNITS = {
    name: unit
    for name, unit, *_rest in workloads.END_TO_END + workloads.PASS_LAYER + replay.CATALOG
}

#: timed window of a --quick run: a smoke test of the suite, not a measurement
QUICK_SECONDS = 0.4


def run_one(
    name: str, seed: int, seconds: float, traced: bool, quick: bool, out_dir: str
) -> Dict[str, Any]:
    """One workload, one pass kind, in this process."""
    started = time.perf_counter()
    if name == "sim_fleet":
        result = workloads.run_sim(seed, seconds, traced, quick)
    else:
        result = workloads.run_live(name, seed, seconds, traced, quick)
    if traced:
        result["metrics"].update(
            replay.run_all(repeats=2, scale=0.02) if quick else replay.run_all()
        )
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace_{name}.json"), "w") as handle:
            json.dump(
                {
                    "workload": name,
                    "seed": seed,
                    "seconds": seconds,
                    "spans": result["spans"],
                    "passes": result["passes"],
                    "metrics": result["metrics"],
                    "faults": result["faults"],
                },
                handle,
                indent=1,
            )
    result["wall_s"] = time.perf_counter() - started
    return result


def print_one(name: str, result: Dict[str, Any]) -> None:
    for metric, value in result["metrics"].items():
        print(f"{name} {metric} {value:.6g} {UNITS[metric]}")
    for fault in result["faults"]:
        print(f"{name} FAULT {fault}")
    detail = {
        "spreads": result["spreads"],
        "faults": result["faults"],
        "wall_s": result["wall_s"],
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric: {"value": value, "unit": UNITS[metric]}
                    for metric, value in result["metrics"].items()
                },
            }
        )
    )


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_child(name: str, trace: int, seed: int, seconds: float, quick: bool,
              out_dir: str) -> Optional[Dict[str, Any]]:
    """One workload run in a fresh process; echoes its metric lines."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--out", out_dir]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stdout + done.stderr)
        sys.stderr.write(f"perf: {name} --trace {trace} exited {done.returncode}\n")
        return None
    print("\n".join(lines[:-2]))
    final = json.loads(lines[-1])
    final.update(json.loads(lines[-2])["detail"])
    final["metrics"] = {metric: item["value"] for metric, item in final["metrics"].items()}
    return final


def run_suite(seed: int, seconds: float, quick: bool, out_dir: str, repeats: int) -> int:
    """Every workload, each run in a fresh process.

    *repeats* rounds over all workloads untraced (round-robin, so a slow
    spell of the host spreads over the workloads instead of landing on one),
    then one traced run each.  ``metrics`` holds the median over the rounds;
    ``spreads`` the run-to-run quartile spread from three rounds on, and the
    in-run segment spread below that.
    """
    combined: Dict[str, Any] = {
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "repeats": repeats,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in workloads.END_TO_END
        ],
        "workloads": {},
    }
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in workloads.WORKLOADS}
    for trace, rounds in ((0, repeats), (1, 1)):
        for round_index in range(rounds):
            for name in workloads.WORKLOADS:
                run = run_child(name, trace, seed + round_index, seconds, quick, out_dir)
                if run is None:
                    return 1
                runs[name].append(run)
    failed_any = False
    for name, done in runs.items():
        untraced, traced = done[:-1], done[-1]
        metrics = {
            metric: statistics.median(run["metrics"][metric] for run in untraced)
            for metric in untraced[0]["metrics"]
        }
        if repeats >= 3:
            spreads = {
                metric: workloads.quartile_spread([run["metrics"][metric] for run in untraced])
                for metric in metrics
            }
        else:
            spreads = untraced[0]["spreads"]
        metrics.update(traced["metrics"])
        attempted = sum(run["attempted"] for run in done)
        failed = sum(run["failed"] for run in done)
        metrics["failed_share"] = failed / attempted
        print(f"{name} failed_share {metrics['failed_share']:.6g} ratio")
        failed_any = failed_any or failed > 0
        combined["workloads"][name] = {
            "metrics": metrics,
            "spreads": spreads,
            "runs": [run["metrics"] for run in untraced],
            "faults": [fault for run in done for fault in run["faults"]],
            "wall_s": sum(run["wall_s"] for run in done),
            "attempted": attempted,
            "failed": failed,
        }
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "result.json")
    with open(out_path, "w") as handle:
        json.dump(combined, handle, indent=1)
    print(f"perf: wrote {out_path}")
    return 1 if failed_any else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default 20, or 0.4 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny counts: a smoke test of the suite, not a measurement")
    parser.add_argument("--repeats", type=int, default=1,
                        help="whole suite only: untraced rounds over all workloads; "
                        "result.json reports their medians (use 5 or more to compare)")
    parser.add_argument("--out", default=OUT_DIR,
                        help="directory for trace_<workload>.json and the whole-suite "
                        "result.json (default perf/out)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else 20.0
    if args.workload is None:
        return run_suite(args.seed, seconds, args.quick, args.out, max(1, args.repeats))
    # a polite kill unwinds through the finally below too
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        result = run_one(
            args.workload, args.seed, seconds, bool(args.trace), args.quick, args.out
        )
    finally:
        # whatever happened above, no process may outlive this one: not a
        # pool child after an exception, not the shm resource tracker
        killed = adapter.stop_all_children()
    if killed:
        result["faults"].append(f"processes had to be killed at exit: {killed}")
        result["failed"] = result["attempted"]
    print_one(args.workload, result)
    return 0
