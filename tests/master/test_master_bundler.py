"""Tests for the bundler, the volunteer registry and a deployment's master side."""

from __future__ import annotations

import textwrap

import pytest

from repro.apps import CollatzApplication
from repro.errors import BundlingError, DeploymentError
from repro.master import VolunteerRegistry, bundle_function, bundle_module
from repro.net.channel import TRANSPORTS
from repro.sim.scenario import DeploymentScenario, ScenarioConfig


class TestBundler:
    def test_bundle_function(self, square_fn):
        bundle = bundle_function(square_fn, name="square", dependencies=["numpy"])
        assert bundle.name == "square"
        assert bundle.size_bytes > 100_000
        assert bundle.dependencies == ["numpy"]
        results = []
        bundle.apply(3, lambda err, value: results.append(value))
        assert results == [9]

    def test_bundle_catches_exceptions(self):
        def broken(value, cb):
            raise RuntimeError("boom")

        bundle = bundle_function(broken)
        outcome = []
        bundle.apply(1, lambda err, value: outcome.append(err))
        assert isinstance(outcome[0], RuntimeError)

    def test_bundle_rejects_non_callable(self):
        with pytest.raises(BundlingError):
            bundle_function("not a function")

    def test_bundle_module_with_exports(self, tmp_path):
        module = tmp_path / "render.py"
        module.write_text(textwrap.dedent("""
            def _process(value, cb):
                cb(None, int(value) + 1)

            exports = {'/pando/1.0.0': _process}
            dependencies = ['raytracer']
        """))
        bundle = bundle_module(str(module))
        assert bundle.dependencies == ["raytracer"]
        out = []
        bundle.apply("41", lambda err, value: out.append(value))
        assert out == [42]

    def test_bundle_module_with_pando_function(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("def pando(value, cb):\n    cb(None, value * 2)\n")
        bundle = bundle_module(str(module))
        out = []
        bundle.apply(5, lambda err, value: out.append(value))
        assert out == [10]

    def test_bundle_module_missing_function(self, tmp_path):
        module = tmp_path / "empty.py"
        module.write_text("x = 1\n")
        with pytest.raises(BundlingError):
            bundle_module(str(module))

    def test_bundle_module_missing_file(self):
        with pytest.raises(BundlingError):
            bundle_module("/nonexistent/path.py")

    def test_bundle_module_with_syntax_error(self, tmp_path):
        module = tmp_path / "broken.py"
        module.write_text("def broken(:\n")
        with pytest.raises(BundlingError):
            bundle_module(str(module))


class TestVolunteerRegistry:
    def test_register_and_lookup(self):
        registry = VolunteerRegistry()
        record = registry.register("host-a", "iphone-se", "websocket", joined_at=1.0, tabs=2)
        assert registry.get(record.volunteer_id) is record
        assert registry.joins == 1
        assert record.active

    def test_mark_left_gracefully(self):
        registry = VolunteerRegistry()
        record = registry.register("h", "d", "websocket", 0.0)
        registry.mark_left(record.volunteer_id, 5.0)
        assert not record.active
        assert registry.leaves == 1
        assert registry.crashes == 0

    def test_mark_crashed(self):
        registry = VolunteerRegistry()
        record = registry.register("h", "d", "webrtc", 0.0)
        registry.mark_left(record.volunteer_id, 5.0, crashed=True)
        assert registry.crashes == 1

    def test_double_mark_is_idempotent(self):
        registry = VolunteerRegistry()
        record = registry.register("h", "d", "webrtc", 0.0)
        registry.mark_left(record.volunteer_id, 5.0, crashed=True)
        registry.mark_left(record.volunteer_id, 6.0)
        assert registry.crashes == 1 and registry.leaves == 0

    def test_active_listing(self):
        registry = VolunteerRegistry()
        first = registry.register("h1", "d1", "websocket", 0.0)
        registry.register("h2", "d2", "websocket", 0.0)
        registry.mark_left(first.volunteer_id, 1.0)
        assert len(registry.active) == 1
        assert len(registry) == 2


class TestScenarioConfigValidation:
    """The deployment's startup options are validated by its one config."""

    def test_defaults(self):
        config = ScenarioConfig(application=CollatzApplication())
        assert config.resolved_batch_size() == 2
        assert config.resolved_transport() == "websocket"

    def test_invalid_transport(self):
        with pytest.raises(DeploymentError):
            ScenarioConfig(application=CollatzApplication(), transport="carrier-pigeon")

    @pytest.mark.parametrize("transport", sorted(TRANSPORTS))
    def test_every_transport_row_is_accepted(self, transport):
        config = ScenarioConfig(application=CollatzApplication(), transport=transport)
        assert config.resolved_transport() == transport

    def test_invalid_batch_size(self):
        with pytest.raises(DeploymentError):
            ScenarioConfig(application=CollatzApplication(), batch_size=0)


class TestDeploymentScenarioMasterSide:
    def test_local_workers_process_stream(self):
        app = CollatzApplication()
        scenario = DeploymentScenario(ScenarioConfig(application=app, devices=[]))
        scenario.dmap.add_local_worker(scenario.bundle.apply)
        inputs = [app.wrap_input(value) for value in app.generate_inputs(4)]
        expected = []
        for value in inputs:
            scenario.bundle.apply(value, lambda err, result: expected.append(result))
        outcome = scenario.run_to_completion(inputs, wrap=False)
        assert outcome.outputs == expected

    def test_serve_announces_local_url(self):
        scenario = DeploymentScenario(ScenarioConfig(application=CollatzApplication()))
        url = scenario.serve()
        assert url.startswith("http://")
        assert any("Serving volunteer code" in line for line in scenario.log)

    def test_output_counted_in_metrics(self):
        app = CollatzApplication()
        scenario = DeploymentScenario(ScenarioConfig(application=app, devices=[]))
        scenario.dmap.add_local_worker(scenario.bundle.apply)
        outcome = scenario.run_to_completion(app.generate_inputs(3))
        assert len(outcome.outputs) == 3
        assert scenario.metrics.output_items == 3
