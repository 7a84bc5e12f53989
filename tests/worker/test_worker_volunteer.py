"""Tests for simulated volunteers and their browser tabs (worker side)."""

from __future__ import annotations

from repro.devices import device_by_name
from repro.master.bundler import bundle_function
from repro.net.channel import SimChannel
from repro.pullstream import collect, pull, values
from repro.sim.metrics import MetricsCollector
from repro.worker import SimVolunteer


def connect(channel):
    done = []
    channel.connect(lambda err, ch: done.append(err))
    channel.scheduler.run(until=lambda: bool(done))
    return channel


class TestBrowserTab:
    """One tab of a volunteer: ``AsyncMap(f)`` between its channel's halves."""

    def test_processes_values_from_channel(self, scheduler, network, square_fn):
        volunteer = SimVolunteer(device_by_name("iphone-se"), scheduler)
        channel = connect(SimChannel(scheduler, network, "master", "iphone-se"))
        volunteer.attach_tab(0, channel.remote, bundle_function(square_fn))
        results = pull(channel.local.duplex.source, collect())
        channel.local.duplex.sink(values([1, 2, 3]))
        scheduler.run(until=lambda: results.done)
        assert results.value == [1, 4, 9]
        assert volunteer.items_processed == 3

    def test_metrics_recorded(self, scheduler, network, square_fn):
        volunteer = SimVolunteer(device_by_name("iphone-se"), scheduler)
        metrics = MetricsCollector()
        metrics.start_window(0.0)
        channel = connect(SimChannel(scheduler, network, "master", "iphone-se"))
        volunteer.attach_tab(1, channel.remote, bundle_function(square_fn), metrics)
        results = pull(channel.local.duplex.source, collect())
        channel.local.duplex.sink(values([1, 2]))
        scheduler.run(until=lambda: results.done)
        # each tab records under its own worker id, name#index
        assert metrics.worker("iphone-se#1").items_processed == 2

    def test_application_cost_model_drives_duration(self, scheduler, network):
        from repro.apps import CollatzApplication

        app = CollatzApplication()
        volunteer = SimVolunteer(device_by_name("iphone-se"), scheduler)
        channel = connect(
            SimChannel(scheduler, network, "master", "iphone-se", heartbeats_enabled=False)
        )
        volunteer.attach_tab(0, channel.remote, bundle_function(app.process, application=app))
        results = pull(channel.local.duplex.source, collect())
        start = scheduler.now
        channel.local.duplex.sink(values([app.wrap_input(v) for v in app.generate_inputs(3)]))
        scheduler.run(until=lambda: results.done)
        # 3 batches of 100 Collatz numbers at 336.18/s on one core
        expected = 3 * 100 / 336.18
        assert scheduler.now - start >= expected * 0.9

    def test_crashed_tab_never_answers(self, scheduler, network, square_fn):
        volunteer = SimVolunteer(device_by_name("novena"), scheduler)
        channel = connect(
            SimChannel(scheduler, network, "master", "novena",
                       heartbeat_interval=0.5, heartbeat_timeout=1.5)
        )
        volunteer.attach_tab(0, channel.remote, bundle_function(square_fn))
        results = pull(channel.local.duplex.source, collect())
        scheduler.call_later(0.01, volunteer.crash)
        channel.local.duplex.sink(values([1, 2, 3]))
        scheduler.run(until=lambda: results.done)
        # the master side sees a connection error, never a result
        assert results.value == []
        assert results.end is not None


class TestSimVolunteer:
    def test_volunteer_contributes_profile_cores(self, scheduler):
        volunteer = SimVolunteer(device_by_name("mbpro-2016"), scheduler)
        assert volunteer.requested_tabs == 2

    def test_tabs_override(self, scheduler):
        volunteer = SimVolunteer(device_by_name("mbpro-2016"), scheduler, tabs=1)
        assert volunteer.requested_tabs == 1

    def test_crash_propagates_to_tabs(self, scheduler, network, square_fn):
        volunteer = SimVolunteer(device_by_name("novena"), scheduler)
        channel = connect(SimChannel(scheduler, network, "master", "novena"))
        volunteer.attach_tab(0, channel.remote, bundle_function(square_fn))
        volunteer.crash()
        assert volunteer.crashed
        assert channel.remote.crashed

    def test_attach_after_crash_silences_endpoint(self, scheduler, network, square_fn):
        volunteer = SimVolunteer(device_by_name("novena"), scheduler)
        volunteer.crash()
        channel = connect(SimChannel(scheduler, network, "master", "novena"))
        volunteer.attach_tab(0, channel.remote, bundle_function(square_fn))
        assert channel.remote.crashed

    def test_attach_after_leave_closes_endpoint_gracefully(
        self, scheduler, network, square_fn
    ):
        volunteer = SimVolunteer(device_by_name("novena"), scheduler)
        volunteer.leave()
        channel = connect(SimChannel(scheduler, network, "master", "novena"))
        at_master = pull(channel.local.duplex.source, collect())
        volunteer.attach_tab(0, channel.remote, bundle_function(square_fn))
        scheduler.run_until(scheduler.now + 1.0)
        assert channel.remote.closed and not channel.remote.crashed
        assert at_master.done and at_master.end is not None
        assert not isinstance(at_master.end, Exception)

    def test_leave_closes_gracefully(self, scheduler, network, square_fn):
        volunteer = SimVolunteer(device_by_name("iphone-se"), scheduler)
        channel = connect(SimChannel(scheduler, network, "master", "iphone-se"))
        volunteer.attach_tab(0, channel.remote, bundle_function(square_fn))
        volunteer.leave()
        scheduler.run_until(scheduler.now + 1.0)
        assert channel.remote.closed
        assert not channel.remote.crashed

    def test_leave_mid_task_sends_no_result(self, scheduler, network, square_fn):
        volunteer = SimVolunteer(device_by_name("iphone-se"), scheduler)
        metrics = MetricsCollector()
        channel = connect(
            SimChannel(scheduler, network, "master", "iphone-se", heartbeats_enabled=False)
        )
        volunteer.attach_tab(0, channel.remote, bundle_function(square_fn), metrics)
        at_master = pull(channel.local.duplex.source, collect())
        channel.local.duplex.sink(values([3]))
        scheduler.run(until=lambda: volunteer.cores[0] is not None)
        volunteer.leave()  # the task keeps the core until it finishes ...
        scheduler.run()
        # ... and its result goes nowhere: the tab is gone
        assert volunteer.last_completion_at is not None
        assert volunteer.items_processed == 0
        assert metrics.workers == {}
        assert at_master.done and at_master.value == []

    def test_items_processed_aggregates_tabs(self, scheduler, network, square_fn):
        volunteer = SimVolunteer(device_by_name("mbpro-2016"), scheduler)
        channels = [
            connect(SimChannel(scheduler, network, "master", "mbpro-2016"))
            for _ in range(2)
        ]
        sinks = []
        for index, channel in enumerate(channels):
            volunteer.attach_tab(index, channel.remote, bundle_function(square_fn))
            sinks.append(pull(channel.local.duplex.source, collect()))
            channel.local.duplex.sink(values([index, index + 10]))
        scheduler.run(until=lambda: all(sink.done for sink in sinks))
        assert volunteer.items_processed == 4
