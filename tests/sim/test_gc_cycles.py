"""Cyclic garbage of a simulated cell must not scale with its inputs.

Everything a value touches on the simulated per-value path — the device's
task step, the tab's completion, the worker's ``async_map`` stage, the
lender and limiter answers — must be freed by refcount once the value is
done.  A reference cycle on that path (a self-rescheduling closure is the
classic one) leaves the value's whole callback chain for the cyclic
collector, so the garbage a cell leaves grows with its input count.  What
a cell may leave to the collector is per run and per attach (the fleet,
its channels, the scenario), never per value.

Each cell runs with the collector disabled; ``gc.collect()`` afterwards
counts every cyclic object the run created.
"""

from __future__ import annotations

import gc

import pytest

from repro.sim.matrix import run_cell, scale_cell, verify_cell

#: growth allowed between the smallest and the largest input count
TOLERANCE = 0.05


def _cyclic_garbage(volunteers: int, inputs: int) -> int:
    gc.collect()
    gc.disable()
    try:
        result = run_cell(scale_cell(volunteers=volunteers, inputs=inputs, seed=3))
        assert verify_cell(result) == []
        del result
        return gc.collect()
    finally:
        gc.enable()


def _assert_flat(volunteers: int, counts) -> None:
    garbage = {inputs: _cyclic_garbage(volunteers, inputs) for inputs in counts}
    smallest, largest = garbage[min(counts)], garbage[max(counts)]
    assert abs(largest - smallest) <= TOLERANCE * smallest, (
        f"cyclic garbage tracks inputs at {volunteers} volunteers: {garbage}"
    )


def test_cyclic_garbage_does_not_grow_with_inputs():
    _assert_flat(50, (150, 600, 2400))


@pytest.mark.slow
def test_cyclic_garbage_does_not_grow_with_inputs_at_1000_volunteers():
    _assert_flat(1000, (300, 3000))
