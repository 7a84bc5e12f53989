"""Planet-scale scenario matrix: 1000-volunteer virtual-time throughput.

The scale cell of the scenario matrix (``repro.sim.matrix.scale_cell``)
deploys ≥1000 heterogeneous volunteers across LAN/VPN/WAN links and pushes
3000 inputs through one unordered lender, all in *virtual* time on
one unpaced event loop.  The quantity this bench reports is the simulator's
leverage: simulated deployment seconds per wall-clock second, and scheduler
events per wall-clock second — the numbers that justify running the whole
matrix in CI instead of on a testbed.

Acceptance bar: the scale cell completes exactly-once with every matrix
invariant intact, inside a wall-clock budget (30 s full scale, well under
that in ``REPRO_BENCH_FAST`` mode at reduced scale).

Run with ``--benchmark-only -s`` for the measured numbers, or in fast mode
(``REPRO_BENCH_FAST=1 ... --benchmark-disable``) as a smoke test.
"""

from __future__ import annotations

import os

from repro.sim.matrix import run_cell, scale_cell, verify_cell

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

WALL_BUDGET_S = 10.0 if FAST else 30.0


def test_thousand_volunteer_matrix_cell(benchmark, bench_once):
    cell = scale_cell(volunteers=200, inputs=600) if FAST else scale_cell()

    cell_result = bench_once(benchmark, run_cell, cell)

    violations = verify_cell(cell_result)
    assert not violations, f"seed={cell.seed}: {violations}"
    assert len(cell_result.outputs) == cell.inputs
    assert cell_result.wall_seconds < WALL_BUDGET_S

    wall = max(cell_result.wall_seconds, 1e-9)
    benchmark.extra_info["volunteers"] = cell.volunteers
    benchmark.extra_info["inputs"] = cell.inputs
    benchmark.extra_info["virtual_seconds"] = cell_result.result.completed_at
    benchmark.extra_info["wall_seconds"] = cell_result.wall_seconds
    benchmark.extra_info["events_processed"] = cell_result.events_processed
    benchmark.extra_info["events_per_wall_second"] = (
        cell_result.events_processed / wall
    )
    benchmark.extra_info["virtual_per_wall"] = (
        cell_result.result.completed_at / wall
    )
    print(
        f"\nmatrix scale: {cell.volunteers} volunteers, {cell.inputs} inputs "
        f"-> virtual {cell_result.result.completed_at:.2f}s in wall "
        f"{cell_result.wall_seconds:.2f}s "
        f"({cell_result.events_processed / wall:,.0f} events/s)"
    )
