"""Planet-scale scenario matrix with bounded-tail cancellation.

Every test runs declarative :class:`~repro.sim.matrix.MatrixCell` cells
through the event loop in virtual time and asserts the matrix invariants
(exactly-once delivery, stats/trace/registry balance, proportional
placement) via :func:`~repro.sim.matrix.verify_cell`.  The smoke subset
runs in tier-1; the full 8-cell grid is ``@pytest.mark.slow`` (CI's
``matrix`` job passes ``--run-slow``).  Seeds are printed on failure so
any cell can be replayed with ``pando simulate --matrix --cell <name>``.
"""

from __future__ import annotations

import inspect
import sys

import pytest

from repro.core.distributed_map import DistributedMap
from repro.pullstream import duplex_pair, pull, values
from repro.sim.matrix import (
    MatrixSearchApplication,
    abort_cell,
    bounded_tail_violations,
    full_matrix,
    golden_cell,
    make_inputs,
    matrix_result,
    matrix_task,
    run_cell,
    scale_cell,
    smoke_matrix,
    synthesize_fleet,
    verify_cell,
)


def run_verified(cell):
    """Run one cell and fail with its name and seed on any violation."""
    cell_result = run_cell(cell)
    violations = verify_cell(cell_result)
    assert not violations, (
        f"cell {cell.name!r} (seed={cell.seed}) violated: {violations}"
    )
    return cell_result


# ------------------------------------------------------------ the matrix
@pytest.mark.parametrize("cell", smoke_matrix(), ids=lambda cell: cell.name)
def test_smoke_cells_satisfy_every_invariant(cell):
    """Tier-1 subset: opposite corners of the grid, churned, with pools."""
    cell_result = run_verified(cell)
    assert len(cell_result.outputs) == cell.inputs
    # Churn was injected: the schedule leaves and rejoins volunteers.  How
    # much of it is *observed* is a race on pool cells — the pool runs on
    # wall clock while the fleet joins in virtual time, so the stream can
    # complete before any given (re)join lands — which is why the registry
    # reconciliation lives in verify_cell with race-aware bounds instead of
    # being asserted exactly here.
    assert cell_result.schedule_info.scheduled_rejoins > 0


@pytest.mark.slow
@pytest.mark.parametrize("cell", full_matrix(), ids=lambda cell: cell.name)
def test_full_matrix_grid(cell):
    """All 8 {ordered} x {shards} x {transport} cells, churned."""
    run_verified(cell)


def test_grid_covers_every_axis_combination():
    cells = full_matrix()
    axes = {(cell.ordered, cell.shards > 1, cell.pool) for cell in cells}
    assert len(cells) == len(axes) == 8


# ----------------------------------------------------------- golden cell
GOLDEN_PLACEMENT = {
    "sim-0000-lan#0": 6,
    "sim-0001-vpn#0": 12,
    "sim-0002-wan#0": 4,
    "sim-0003-lan#0": 10,
}


def test_golden_cell_pins_placement_and_stats():
    """Fixed-seed cell: placement, stats and virtual times never drift."""
    cell = golden_cell()
    cell_result = run_verified(cell)
    assert cell_result.result.report.per_worker_items == GOLDEN_PLACEMENT
    stats = cell_result.result.lender_stats
    assert stats["values_read"] == 32
    assert stats["results_delivered"] == 32
    assert stats["values_relent"] == 0
    assert stats["substreams_opened"] == 4
    assert cell_result.result.completed_at == pytest.approx(
        3.7551507108908893, rel=1e-9
    )
    assert cell_result.events_processed == 108


#: what the ``matrix`` job's cells produce: virtual completion time, sim
#: events, network bytes and, where churn shapes them, registry tallies
MATRIX_PINS = {
    "abort-skew": (abort_cell, 1.9537125418897863, 3539, 516138, None),
    "scale-1000": (scale_cell, 0.8396388363743484, 12806, 100479266, (1000, 345)),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(MATRIX_PINS))
def test_matrix_cells_are_pinned(name):
    """Fixed-seed matrix cells reproduce their simulated outputs exactly."""
    build, completed_at, events, network_bytes, joins_leaves = MATRIX_PINS[name]
    cell_result = run_verified(build())
    assert cell_result.cell.name == name
    result = cell_result.result
    assert result.completed_at == pytest.approx(completed_at, rel=1e-9)
    assert cell_result.events_processed == events
    assert result.network_bytes == network_bytes
    if joins_leaves is not None:
        assert (result.registry["joins"], result.registry["leaves"]) == joins_leaves


def test_golden_cell_is_deterministic_across_runs():
    first = run_cell(golden_cell())
    second = run_cell(golden_cell())
    assert first.result.report.per_worker_items == second.result.report.per_worker_items
    assert first.result.completed_at == second.result.completed_at
    assert first.events_processed == second.events_processed


# ------------------------------------------------------------ scale cell
def test_thousand_volunteer_cell_within_wall_budget():
    """>= 1000 volunteers complete in virtual time on a wall-clock budget."""
    cell = scale_cell()
    assert cell.volunteers >= 1000
    cell_result = run_verified(cell)
    assert len(cell_result.outputs) == cell.inputs
    # Virtual time stays small (the deployment itself is fast) while the
    # wall-clock cost is bounded: the whole point of unpaced simulation.
    assert cell_result.result.completed_at < 60.0
    assert cell_result.wall_seconds < 30.0, (
        f"scale cell took {cell_result.wall_seconds:.1f}s wall "
        f"(seed={cell.seed}, events={cell_result.events_processed})"
    )


# ------------------------------------------------- joining costs no introspection
@pytest.fixture
def signature_calls(monkeypatch):
    """Calls ``repro`` code makes to :func:`inspect.signature` (``pull()``
    falls back to it for a module that carries no ``pull_role``)."""
    calls = []
    real = inspect.signature

    def counting(obj, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("repro."):
            calls.append((caller, obj))
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(inspect, "signature", counting)
    return calls


def test_a_fleet_joins_without_introspection(signature_calls):
    """Every source an attach path hands to ``pull()`` is tagged: twenty
    volunteers used to cost twenty ``inspect.signature`` calls."""
    cell_result = run_verified(scale_cell(volunteers=20, inputs=60, seed=1))
    assert len(cell_result.outputs) == 60
    assert signature_calls == []


@pytest.mark.parametrize("debug", [False, True])
def test_local_attach_paths_make_no_introspection(signature_calls, debug):
    with DistributedMap(batch_size=2, debug=debug) as dmap:
        pull(values([1, 2, 3]), dmap)
        near, _far = duplex_pair()
        dmap.add_channel(near)
        dmap.add_local_worker(lambda value, cb: cb(None, value))
    assert signature_calls == []


# ------------------------------------------- bounded-tail cancellation
def test_abort_cell_tail_is_bounded_by_one_chunk():
    """After the find() hit, no device completes more than one chunk late."""
    cell = abort_cell()
    cell_result = run_verified(cell)  # verify_cell includes the tail bound
    assert cell_result.aborted
    assert cell_result.outputs[0]["hit"] is True
    # The stop flag actually cut work short on the devices.
    assert sum(tail.tasks_stopped for tail in cell_result.tails) > 0


def test_abort_tail_unbounded_without_chunking():
    """The same cell without task chunking overruns the chunk bound.

    This is the control experiment: if it ever passes cleanly, the bounded
    -tail assertion above has stopped measuring anything.
    """
    cell = abort_cell()
    unchunked = run_cell(cell.with_overrides(name="abort-unchunked", task_chunk=None))
    assert unchunked.aborted
    overruns = bounded_tail_violations(unchunked, task_chunk=cell.task_chunk)
    assert overruns, (
        f"skewed tasks finished within one chunk of the abort (seed={cell.seed}); "
        "the bounded-tail cell no longer exercises cancellation"
    )


# --------------------------------------------------- application pieces
def test_matrix_task_matches_simulated_result():
    """Pool workers and simulated tabs must produce identical results."""
    app = MatrixSearchApplication()
    value = {"id": 3, "cost": 2.0, "hit": True}
    wrapped = app.wrap_input(value)
    assert matrix_task(wrapped) == app.simulate_result(wrapped)
    assert matrix_result(value) == {"id": 3, "hit": True}
    assert app.cost(wrapped) == 2.0


def test_make_inputs_is_seeded_and_skewed():
    first = make_inputs(20, seed=5, skew_ids=(1,), skew_factor=10.0, hit_ids=(7,))
    second = make_inputs(20, seed=5, skew_ids=(1,), skew_factor=10.0, hit_ids=(7,))
    assert first == second
    assert [value["id"] for value in first] == list(range(20))
    assert first[1]["cost"] > 9 * first[0]["cost"]
    assert first[7]["hit"] and not first[6]["hit"]


def test_synthesize_fleet_cycles_settings_deterministically():
    fleet = synthesize_fleet(7, seed=3)
    assert [profile.setting for profile in fleet] == [
        "lan", "vpn", "wan", "lan", "vpn", "wan", "lan",
    ]
    assert fleet == synthesize_fleet(7, seed=3)
    assert fleet != synthesize_fleet(7, seed=4)
    assert all(profile.cores == 1 for profile in fleet)
