"""A simulated run pauses the cyclic collector.

``DeploymentScenario.run_on_loop`` is the path of every matrix cell and of
the ``sim_fleet`` perf workload.  Its fleet stays alive until the run ends
and its per-value path leaves no cycle (``test_gc_cycles.py``), so an
automatic pass inside it re-scans live objects and frees nothing.  The run
makes none; one young-generation collection ends it, and the collector is
on again afterwards however the run ends — unless the caller had turned it
off, in which case the run collects nothing and leaves it off.
"""

from __future__ import annotations

import gc

import pytest

from repro.apps import CollatzApplication
from repro.devices import LAN_DEVICES
from repro.errors import PandoError
from repro.pullstream import find
from repro.sim.matrix import run_cell, scale_cell, verify_cell
from repro.sim.scenario import DeploymentScenario, ScenarioConfig


@pytest.fixture
def collections(monkeypatch):
    """The generation of every collection that starts while
    ``run_on_loop`` is on the stack, in order."""
    seen = []
    inside = []
    run_on_loop = DeploymentScenario.run_on_loop

    def watched(self, *args, **kwargs):
        inside.append(True)
        try:
            return run_on_loop(self, *args, **kwargs)
        finally:
            inside.pop()

    def on_collection(phase, info):
        if phase == "start" and inside:
            seen.append(info["generation"])

    monkeypatch.setattr(DeploymentScenario, "run_on_loop", watched)
    gc.callbacks.append(on_collection)
    try:
        yield seen
    finally:
        gc.callbacks.remove(on_collection)


def small_cell():
    return scale_cell(volunteers=50, inputs=300, seed=3)


def test_a_cell_runs_no_automatic_collection(collections):
    assert gc.isenabled()
    result = run_cell(small_cell())
    assert verify_cell(result) == []
    assert collections == [0]  # the final young collection, nothing else
    assert gc.isenabled()


def test_the_collector_is_back_on_after_a_run_that_times_out(collections):
    with pytest.raises(PandoError, match="timed out"):
        run_cell(small_cell().with_overrides(timeout=1e-6))
    assert collections == [0]
    assert gc.isenabled()


def test_the_collector_is_back_on_after_a_sink_that_raises(collections):
    def refuse(_value):
        raise RuntimeError("the sink refused a value")

    app = CollatzApplication()
    scenario = DeploymentScenario(
        ScenarioConfig(application=app, setting="lan", devices=LAN_DEVICES[:2])
    )
    try:
        with pytest.raises(RuntimeError, match="refused"):
            scenario.run_on_loop(app.generate_inputs(8), sink=find(refuse), timeout=30)
    finally:
        scenario.dmap.close()
    assert collections == [0]
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_keeps_it_disabled(collections):
    gc.disable()
    try:
        result = run_cell(small_cell())
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert verify_cell(result) == []
    assert collections == []
