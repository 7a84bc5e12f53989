"""Integration tests: full simulated deployments (master + volunteers + net)."""

from __future__ import annotations

import pytest

from repro.apps import CollatzApplication, RaytraceApplication
from repro.devices import LAN_DEVICES, VPN_DEVICES, WAN_DEVICES
from repro.devices.profiles import devices_for_setting
from repro.errors import DeploymentError
from repro.sim.failures import FailureSchedule
from repro.sim.scenario import (
    DeploymentScenario,
    ScenarioConfig,
    default_batch_size,
)


def lan_subset(*names):
    return [device for device in LAN_DEVICES if device.name in names]


class TestRunToCompletion:
    def test_lan_deployment_processes_everything_in_order(self):
        app = CollatzApplication()
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=lan_subset("iphone-se", "mbair-2011"),
        )
        scenario = DeploymentScenario(config)
        inputs = list(app.generate_inputs(30))
        outcome = scenario.run_to_completion(inputs)
        assert len(outcome.outputs) == 30
        assert outcome.registry["joins"] == 2
        # all simulated results in input order (each echoes its input id)
        firsts = [result["n"] for result in outcome.outputs]
        assert firsts == [value["first"] for value in inputs]

    def test_vpn_deployment_uses_websockets(self):
        app = RaytraceApplication()
        config = ScenarioConfig(
            application=app, setting="vpn", devices=VPN_DEVICES[:3]
        )
        scenario = DeploymentScenario(config)
        assert scenario.transport == "websocket"
        outcome = scenario.run_to_completion(app.generate_inputs(12))
        assert len(outcome.outputs) == 12

    def test_wan_deployment_uses_webrtc_and_public_server(self):
        app = RaytraceApplication()
        config = ScenarioConfig(
            application=app, setting="wan", devices=WAN_DEVICES[:3]
        )
        scenario = DeploymentScenario(config)
        assert scenario.transport == "webrtc"
        assert scenario.public_server is not None
        outcome = scenario.run_to_completion(app.generate_inputs(9))
        assert len(outcome.outputs) == 9
        assert scenario.public_server.signalling_messages > 0

    def test_paper_batch_size_defaults(self):
        assert default_batch_size("lan") == 2
        assert default_batch_size("vpn") == 2
        assert default_batch_size("wan") == 4

    def test_join_times_stagger_participation(self):
        app = CollatzApplication()
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=lan_subset("iphone-se", "mbpro-2016"),
            join_times={"mbpro-2016": 5.0},
        )
        scenario = DeploymentScenario(config)
        outcome = scenario.run_to_completion(app.generate_inputs(10))
        assert len(outcome.outputs) == 10

    def test_stalls_without_any_volunteer(self):
        app = CollatzApplication()
        config = ScenarioConfig(application=app, setting="lan", devices=[])
        scenario = DeploymentScenario(config)
        with pytest.raises(DeploymentError):
            scenario.run_to_completion(app.generate_inputs(3))

    @pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
    def test_a_process_pool_beside_the_volunteers_delivers(self, ordered):
        """A real pool attached to the scenario's map is served by the same
        loop that fires the simulated events: its replies come back, and
        the run delivers every output."""
        app = CollatzApplication()
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=lan_subset("iphone-se"),
            tabs={"iphone-se": 1},
            ordered=ordered,
        )
        scenario = DeploymentScenario(config)
        handle = scenario.dmap.add_process_pool("repro.pool.workloads:echo", processes=1)
        inputs = list(app.generate_inputs(20))
        outcome = scenario.run_to_completion(inputs)
        # a volunteer answers {"n": first, ...}; the echo pool its wrapped input
        firsts = [out["n"] if "n" in out else out["value"]["first"] for out in outcome.outputs]
        expected = [value["first"] for value in inputs]
        if not ordered:
            firsts, expected = sorted(firsts), sorted(expected)
        assert firsts == expected
        assert handle.pool.results_returned > 0

    @pytest.mark.parametrize("method", ["run_measurement", "run_to_completion"])
    def test_a_run_closes_the_map(self, method):
        """shutdown() closes the map, so no selector or socket pair of a
        finished run is left for the collector to find."""
        app = CollatzApplication()
        config = ScenarioConfig(
            application=app, setting="lan", devices=lan_subset("iphone-se"), duration=5.0
        )
        scenario = DeploymentScenario(config)
        if method == "run_measurement":
            scenario.run_measurement()
        else:
            scenario.run_to_completion(app.generate_inputs(4))
        assert scenario.dmap.scheduler.closed

    def test_unknown_device_in_failure_schedule_rejected(self):
        app = CollatzApplication()
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=lan_subset("iphone-se"),
            failure_schedule=FailureSchedule().crash(1.0, "not-a-device"),
        )
        scenario = DeploymentScenario(config)
        with pytest.raises(DeploymentError):
            scenario.run_to_completion(app.generate_inputs(2))


class TestMeasurement:
    def test_lan_collatz_matches_paper_within_tolerance(self):
        app = CollatzApplication()
        config = ScenarioConfig(application=app, setting="lan", duration=20.0, warmup=5.0)
        outcome = DeploymentScenario(config).run_measurement()
        measured = outcome.report.total_throughput * app.ops_per_value
        assert measured == pytest.approx(2209.65, rel=0.05)

    def test_output_matches_sum_of_workers(self):
        """Paper 5.1: the total of all devices corresponds to the throughput
        observed at the output of Pando (within the in-flight window)."""
        app = CollatzApplication()
        config = ScenarioConfig(application=app, setting="lan", duration=20.0, warmup=5.0)
        outcome = DeploymentScenario(config).run_measurement()
        report = outcome.report
        assert report.output_items == pytest.approx(report.total_items, abs=40)

    def test_per_device_shares_match_paper(self):
        app = RaytraceApplication()
        config = ScenarioConfig(application=app, setting="lan", duration=20.0, warmup=5.0)
        outcome = DeploymentScenario(config).run_measurement()
        report = outcome.report
        shares = {}
        for worker_id, throughput in report.per_worker_throughput.items():
            device = worker_id.split("#")[0]
            shares[device] = shares.get(device, 0.0) + throughput
        total = sum(shares.values())
        mbpro_share = 100.0 * shares["mbpro-2016"] / total
        assert mbpro_share == pytest.approx(46.6, abs=3.0)

    def test_adaptive_share_scales_with_device_speed(self):
        app = CollatzApplication()
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=lan_subset("novena", "mbpro-2016"),
            duration=15.0,
            warmup=5.0,
        )
        outcome = DeploymentScenario(config).run_measurement()
        items = outcome.report.per_worker_items
        novena = sum(v for k, v in items.items() if k.startswith("novena"))
        mbpro = sum(v for k, v in items.items() if k.startswith("mbpro"))
        assert mbpro > 4 * novena


class TestFaultTolerance:
    def test_crash_mid_run_is_transparent(self):
        app = CollatzApplication()
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=lan_subset("novena", "iphone-se"),
            failure_schedule=FailureSchedule().crash(2.0, "novena"),
        )
        scenario = DeploymentScenario(config)
        outcome = scenario.run_to_completion(app.generate_inputs(40))
        assert len(outcome.outputs) == 40
        assert outcome.registry["crashes"] >= 1

    def test_graceful_leave_is_not_a_crash(self):
        app = CollatzApplication()
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=lan_subset("novena", "iphone-se"),
            failure_schedule=FailureSchedule().leave(2.0, "novena"),
        )
        scenario = DeploymentScenario(config)
        outcome = scenario.run_to_completion(app.generate_inputs(30))
        assert len(outcome.outputs) == 30
        assert outcome.registry["crashes"] == 0

    def test_leave_while_tabs_connect_is_not_a_crash(self):
        """A volunteer that leaves before its tabs' channels are up closes
        them gracefully once they are: the master records a leave and
        re-lends at once, without waiting out a heartbeat timeout."""
        app = CollatzApplication()
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=devices_for_setting("lan")[:2],
            failure_schedule=FailureSchedule().leave(0.001, "novena"),
            heartbeat_interval=0.5,
            heartbeat_timeout=1.5,
        )
        outcome = DeploymentScenario(config).run_to_completion(app.generate_inputs(40))
        assert len(outcome.outputs) == 40
        assert outcome.registry["crashes"] == 0
        assert outcome.registry["leaves"] == 1
        assert not any("no heartbeat" in line for line in outcome.log)

    def test_all_but_one_device_crash(self):
        app = CollatzApplication()
        schedule = FailureSchedule().crash(1.0, "novena").crash(1.5, "mbair-2011")
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=lan_subset("novena", "mbair-2011", "iphone-se"),
            failure_schedule=schedule,
        )
        outcome = DeploymentScenario(config).run_to_completion(app.generate_inputs(30))
        assert len(outcome.outputs) == 30
        assert outcome.registry["crashes"] == 2

    def test_ordering_preserved_across_crashes(self):
        app = RaytraceApplication()
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=lan_subset("novena", "mbpro-2016"),
            failure_schedule=FailureSchedule().crash(1.5, "novena"),
        )
        outcome = DeploymentScenario(config).run_to_completion(app.generate_inputs(16))
        angles = [result["angle"] for result in outcome.outputs]
        assert angles == sorted(angles)


class TestSimulatedOutputsPinned:
    """Seeded runs reproduce bit for bit: virtual times, event counts,
    network bytes and registry tallies are pinned for the paths the matrix's
    golden cell does not cover (a WAN deployment through the public server
    and WebRTC, and a LAN measurement window)."""

    @staticmethod
    def wan_scenario():
        app = CollatzApplication()
        first = devices_for_setting("wan")[0].name
        config = ScenarioConfig(
            application=app,
            setting="wan",
            failure_schedule=FailureSchedule().crash(1.0, first).join(2.0, first),
            heartbeat_interval=0.5,
            heartbeat_timeout=1.5,
        )
        return DeploymentScenario(config), app.generate_inputs(120)

    @staticmethod
    def lan_crash_scenario():
        app = CollatzApplication()
        config = ScenarioConfig(
            application=app,
            setting="lan",
            devices=lan_subset("novena", "iphone-se"),
            failure_schedule=FailureSchedule().crash(1.0, "novena"),
            heartbeat_interval=0.5,
            heartbeat_timeout=1.5,
        )
        return DeploymentScenario(config), app.generate_inputs(40)

    def test_wan_run_is_pinned(self):
        scenario, inputs = self.wan_scenario()
        outcome = scenario.run_to_completion(inputs)
        assert outcome.completed_at == pytest.approx(8.151597250529782, rel=1e-9)
        assert outcome.scheduler_events == 889
        assert outcome.network_bytes == 850352
        assert outcome.registry == {
            "joins": 8, "crashes": 1, "leaves": 0, "volunteers": 8
        }
        assert scenario.public_server.signalling_messages == 16
        assert len(outcome.outputs) == 120

    def test_lan_measurement_is_pinned(self):
        config = ScenarioConfig(
            application=CollatzApplication(), setting="lan", duration=10.0, warmup=2.0
        )
        outcome = DeploymentScenario(config).run_measurement()
        assert outcome.report.total_items == 219
        assert outcome.report.output_items == 221
        assert outcome.scheduler_events == 1285
        assert outcome.network_bytes == 565143

    @pytest.mark.parametrize("build", ["wan_scenario", "lan_crash_scenario"])
    def test_log_does_not_depend_on_earlier_runs(self, build):
        """Channel and deployment ids are taken per run, so the second of
        two identical runs in one process logs exactly what the first did."""
        logs = []
        for _ in range(2):
            scenario, inputs = getattr(self, build)()
            logs.append(scenario.run_to_completion(inputs).log)
        # the lines that name a channel and a deployment are in it
        assert any(" lost volunteer-" in line for line in logs[0])
        assert logs[0] == logs[1]

    def test_a_crashed_volunteer_is_lost_once_in_the_log(self):
        """novena contributes two tabs, so its crash closes two channels;
        the registry records one departure and the log says so once."""
        scenario, inputs = self.lan_crash_scenario()
        outcome = scenario.run_to_completion(inputs)
        (novena,) = [r for r in scenario.dmap.registry.records if r.device_name == "novena"]
        assert novena.tabs == 2 and novena.crashed
        lost = [line for line in outcome.log if " lost " in line]
        assert len(lost) == 1 and f" lost {novena.volunteer_id} " in lost[0], lost
        assert outcome.registry["crashes"] == 1
