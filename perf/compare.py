"""Compare two suite results: ``python3 perf/compare.py A.json B.json``.

*A* is the baseline, *B* the candidate; both are ``result.json`` files
written by a whole-suite ``perf/run.py --repeats N``.  One row per workload
and end-to-end metric gives both medians, the ratio ``B / A`` with its base,
and the bound.  A metric is ``regressed`` when B is worse than A by more than
its bound, and ``unresolved`` when either side's recorded spread (run to run
from three repeats on, between segments of the one run below that) exceeds
the bound: the difference cannot be told from noise.  Exits 1 on any
``regressed`` row or a higher ``failed_share``.  On the reference box single
runs differ by up to 35% on identical code; compare medians of 5 or more.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

def compare(base: Dict[str, Any], cand: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name, a in base["workloads"].items():
        b = cand["workloads"].get(name)
        if b is None:
            rows.append({"workload": name, "metric": "*", "verdict": "missing"})
            continue
        for spec in base["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            va, vb = a["metrics"][metric], b["metrics"][metric]
            worse = (va - vb) / va if spec["better"] == "higher" else (vb - va) / va
            spread = max(a["spreads"].get(metric, 0.0), b["spreads"].get(metric, 0.0))
            if worse > bound:
                verdict = "regressed"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {"workload": name, "metric": metric, "a": va, "b": vb, "ratio": vb / va,
                 "bound": bound, "spread": spread, "verdict": verdict}
            )
        fa, fb = a["metrics"]["failed_share"], b["metrics"]["failed_share"]
        rows.append(
            {"workload": name, "metric": "failed_share", "a": fa, "b": fb,
             "ratio": float("nan"), "bound": 0.0, "spread": 0.0,
             "verdict": "regressed" if fb > fa else "ok"}
        )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        cand = json.load(handle)
    if base["machine"] != cand["machine"]:
        print("note: the two results come from different machines")
    rows = compare(base, cand)
    print(f"{'workload':18s} {'metric':22s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
          f"{'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:18s} missing from B")
            continue
        print(
            f"{row['workload']:18s} {row['metric']:22s} {row['a']:12.5g} {row['b']:12.5g} "
            f"{row['ratio']:7.3f} {row['bound']:6.2f} {row['spread']:7.3f}  {row['verdict']}"
        )
    bad = [row for row in rows if row["verdict"] in ("regressed", "missing")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
