"""A simulated run pauses the cyclic collector.

``DeploymentScenario.run_measurement`` and ``run_to_completion`` are the
two ways to run a scenario; the second is the path of every matrix cell and
of the ``sim_fleet`` perf workload.  A run's fleet stays alive until it
ends and its per-value path leaves no cycle (``test_gc_cycles.py``), so an
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

RUNS = ("run_measurement", "run_to_completion")


@pytest.fixture
def collections(monkeypatch):
    """The generation of every collection that starts while a scenario run
    is on the stack, in order."""
    seen = []
    inside = []

    def watch(name):
        run = getattr(DeploymentScenario, name)

        def watched(self, *args, **kwargs):
            inside.append(True)
            try:
                return run(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(DeploymentScenario, name, watched)

    def on_collection(phase, info):
        if phase == "start" and inside:
            seen.append(info["generation"])

    for name in RUNS:
        watch(name)
    gc.callbacks.append(on_collection)
    try:
        yield seen
    finally:
        gc.callbacks.remove(on_collection)


def lan_scenario(app):
    return DeploymentScenario(
        ScenarioConfig(
            application=app,
            setting="lan",
            devices=LAN_DEVICES[:2],
            duration=30.0,
            warmup=2.0,
        )
    )


def small_cell():
    return scale_cell(volunteers=50, inputs=300, seed=3)


def test_a_cell_runs_no_automatic_collection(collections):
    assert gc.isenabled()
    result = run_cell(small_cell())
    assert verify_cell(result) == []
    assert collections == [0]  # the final young collection, nothing else
    assert gc.isenabled()


@pytest.fixture
def eager_collector():
    """A young-generation threshold so low that a run that let the collector
    run would make passes, however little it allocates."""
    thresholds = gc.get_threshold()
    gc.set_threshold(50, *thresholds[1:])
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)


@pytest.mark.parametrize("method", RUNS)
def test_a_run_makes_no_automatic_collection(collections, eager_collector, method):
    app = CollatzApplication()
    scenario = lan_scenario(app)
    # a young generation left near the threshold by the set-up would pass
    # it on the few allocations before the run pauses the collector
    gc.collect(0)
    if method == "run_measurement":
        assert scenario.run_measurement().report.total_items > 0
    else:
        assert len(scenario.run_to_completion(app.generate_inputs(200)).outputs) == 200
    assert collections == [0]
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
    scenario = lan_scenario(app)
    try:
        with pytest.raises(RuntimeError, match="refused"):
            scenario.run_to_completion(
                app.generate_inputs(8), sink=find(refuse), timeout=30
            )
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
