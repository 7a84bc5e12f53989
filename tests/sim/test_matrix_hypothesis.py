"""Property-based tests for the scenario matrix (hypothesis).

Two families of properties:

* **Causal validity of generated schedules** — for any wave/partition
  parameters the :class:`~repro.sim.failures.ChurnModel` accepts, the
  schedule it emits must be replayable: per-worker events alternate
  (leave before rejoin, rejoin before the next leave), timestamps never
  decrease and never escape the horizon.  These are the invariants
  ``DeploymentScenario._schedule_failures`` silently relies on.

* **Exactly-once under random abort points** — a tiny pure-sim matrix cell
  whose ``find()`` hit lands at a randomly chosen input must always abort,
  deliver exactly the one hit, and pass every ``verify_cell`` invariant.
  This is the randomized sibling of the pinned abort cell in
  ``tests/integration/test_scenario_matrix.py``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.failures import ChurnModel
from repro.sim.matrix import MatrixCell, run_cell, verify_cell

# ----------------------------------------------------- schedule validity
wave_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "workers": st.integers(1, 8),
        "horizon": st.floats(5.0, 80.0),
        "period": st.floats(2.0, 30.0),
        "duty": st.floats(0.1, 0.9),
        "jitter": st.floats(0.0, 10.0),
        "participation": st.floats(0.0, 1.0),
    }
)


@given(params=wave_params)
@settings(max_examples=60, deadline=None)
def test_waves_are_always_causally_valid(params):
    model = ChurnModel(mean_uptime=10.0, seed=params["seed"])
    worker_ids = [f"w{i}" for i in range(params["workers"])]
    schedule = model.waves(
        worker_ids,
        horizon=params["horizon"],
        period=params["period"],
        duty=params["duty"],
        jitter=params["jitter"],
        participation=params["participation"],
    )
    times = [event.time for event in schedule]
    assert times == sorted(times)
    assert all(0.0 <= time < params["horizon"] for time in times)
    for worker_id in worker_ids:
        events = schedule.events_for(worker_id)
        # Strict alternation starting with a leave; jitter clamping must
        # keep each pair ordered even when the requested jitter is huge.
        kinds = [event.kind for event in events]
        assert kinds == (["leave", "join"] * len(events))[: len(events)]
        for earlier, later in zip(events, events[1:]):
            assert earlier.time < later.time


@given(
    raw=st.lists(
        st.tuples(st.floats(0.0, 50.0), st.floats(0.1, 20.0)),
        min_size=1,
        max_size=4,
    ),
    workers=st.integers(1, 6),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_partitions_are_always_causally_valid(raw, workers, fraction, seed):
    # Lay the (gap, width) pairs out as guaranteed-disjoint windows.
    windows = []
    cursor = 0.0
    for gap, width in raw:
        begin = cursor + gap
        windows.append((begin, begin + width))
        cursor = begin + width
    model = ChurnModel(mean_uptime=10.0, seed=seed)
    worker_ids = [f"w{i}" for i in range(workers)]
    schedule = model.partitions(worker_ids, windows, fraction=fraction)
    for worker_id in worker_ids:
        events = schedule.events_for(worker_id)
        kinds = [event.kind for event in events]
        assert kinds == (["crash", "join"] * len(events))[: len(events)]
        assert len(events) % 2 == 0  # every partition the worker joins heals
        for crash, join in zip(events[::2], events[1::2]):
            assert crash.time < join.time
    # Timestamps are shared across members: only window boundaries appear.
    boundary_times = {time for window in windows for time in window}
    assert {event.time for event in schedule} <= boundary_times


# ------------------------------------------ exactly-once random aborts
@given(
    hit_id=st.integers(0, 23),
    seed=st.integers(0, 2**16),
    ordered=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_random_abort_points_deliver_exactly_the_hit(hit_id, seed, ordered):
    cell = MatrixCell(
        name=f"hyp-abort-{hit_id}",
        ordered=ordered,
        pool=None,
        volunteers=3,
        inputs=24,
        seed=seed,
        base_cost=30.0,
        hit_id=hit_id,
        abort_on_hit=True,
        task_chunk=120.0,
        drain_for=120.0,
        timeout=60.0,
    )
    cell_result = run_cell(cell)
    violations = verify_cell(cell_result)
    assert not violations, f"hit={hit_id} seed={seed}: {violations}"
    assert cell_result.aborted
    assert cell_result.outputs == [{"id": hit_id, "hit": True}]
