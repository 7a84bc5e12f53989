"""Tests for the Table-2 device catalogue and for the device model of a
simulated volunteer: per-core execution, the FIFO queue, chunked tasks and
crash-stop, driven through the volunteer's tabs as a deployment drives them."""

from __future__ import annotations

import dataclasses
import weakref

import pytest

from repro.devices import (
    ALL_DEVICES,
    APPLICATIONS,
    LAN_DEVICES,
    MASTER_DEVICE,
    VPN_DEVICES,
    WAN_DEVICES,
    device_by_name,
    devices_for_setting,
)
from repro.master.bundler import bundle_function
from repro.net.channel import SimChannel
from repro.pullstream import collect, from_iterable, pull, values
from repro.sim.metrics import MetricsCollector
from repro.worker import SimVolunteer


class TestCatalogue:
    def test_device_counts_match_paper(self):
        assert len(LAN_DEVICES) == 5
        assert len(VPN_DEVICES) == 8
        assert len(WAN_DEVICES) == 7

    def test_lan_totals_match_paper(self):
        """The per-device rates must sum to the totals the paper reports.

        The tolerance is 2% because the paper's own totals are rounded (its
        image-processing devices sum to 0.72 while the reported total is 0.71).
        """
        totals = {
            "collatz": 2209.65,
            "crypto": 378_672.0,
            "lender_test": 3603.70,
            "raytrace": 18.94,
            "imageproc": 0.71,
            "ml_agent": 484.90,
        }
        for app, expected in totals.items():
            measured = sum(device.rate(app) for device in LAN_DEVICES)
            assert measured == pytest.approx(expected, rel=0.02)

    def test_vpn_totals_match_paper(self):
        totals = {"collatz": 3823.51, "raytrace": 16.38, "imageproc": 2.73}
        for app, expected in totals.items():
            measured = sum(device.rate(app) for device in VPN_DEVICES)
            assert measured == pytest.approx(expected, rel=0.01)

    def test_wan_totals_match_paper(self):
        totals = {"collatz": 1845.52, "raytrace": 4.75, "ml_agent": 714.38}
        for app, expected in totals.items():
            measured = sum(device.rate(app) for device in WAN_DEVICES)
            assert measured == pytest.approx(expected, rel=0.01)

    def test_wan_has_no_imageproc(self):
        assert all(not device.supports("imageproc") for device in WAN_DEVICES)

    def test_every_device_has_every_other_application(self):
        for device in ALL_DEVICES:
            for app in APPLICATIONS:
                if device.setting == "wan" and app == "imageproc":
                    continue
                assert device.supports(app), f"{device.name} lacks {app}"

    def test_lookup_by_name(self):
        assert device_by_name("iphone-se").setting == "lan"
        assert device_by_name("dahu.grenoble").setting == "vpn"
        with pytest.raises(KeyError):
            device_by_name("nokia-3310")

    def test_devices_for_setting(self):
        assert devices_for_setting("lan") == LAN_DEVICES
        with pytest.raises(ValueError):
            devices_for_setting("moon")

    def test_per_core_rate(self):
        mbpro = device_by_name("mbpro-2016")
        assert mbpro.per_core_rate("collatz") == pytest.approx(1045.58 / 2)

    def test_task_duration(self):
        iphone = device_by_name("iphone-se")
        assert iphone.task_duration("collatz", cost=336.18) == pytest.approx(1.0)

    def test_iphone_beats_uvb_on_collatz(self):
        """One of the paper's headline comparisons (section 5.5)."""
        assert device_by_name("iphone-se").per_core_rate("collatz") > device_by_name(
            "uvb.sophia"
        ).per_core_rate("collatz")

    def test_master_device_has_no_rates(self):
        assert not MASTER_DEVICE.supports("collatz")
        with pytest.raises(KeyError):
            MASTER_DEVICE.rate("collatz")


class Work:
    """One input of *cost* work units, weakly referenceable."""

    def __init__(self, cost):
        self.cost = cost


def tracked(refs, cost):
    """Yield one :class:`Work` whose weak reference goes to *refs*; the
    generator frame keeps no reference to it once yielded."""
    yield _track(refs, Work(cost))


def _track(refs, work):
    refs.append(weakref.ref(work))
    return work


class TimedApplication:
    """A value costs its ``cost``; its result is the virtual time its task
    finished, also logged in :attr:`finished`."""

    def __init__(self, scheduler, name="raytrace"):
        self.scheduler = scheduler
        self.name = name
        self.finished = []

    def cost(self, value):
        return value.cost

    def simulate_result(self, value):
        self.finished.append(self.scheduler.now)
        return self.scheduler.now


def open_tabs(volunteer, network, app, *inputs, metrics=None, stagger=0.0, **channel_options):
    """Connect one channel per entry of *inputs*, attach each as a tab of
    *volunteer* and send it those values, tab ``i`` ``i * stagger`` seconds
    after the first; return each tab's results at the master.  Heartbeats
    are off unless *channel_options* turn them on."""
    scheduler = volunteer.scheduler
    channel_options.setdefault("heartbeats_enabled", False)
    channels = []
    for _ in inputs:
        channel = SimChannel(scheduler, network, "master", volunteer.host, **channel_options)
        connected = []
        channel.connect(lambda err, ch: connected.append(err))
        scheduler.run(until=lambda: bool(connected))
        channels.append(channel)
    bundle = bundle_function(lambda value, cb: cb(None, value), application=app)
    results = []
    for index, (channel, tab_inputs) in enumerate(zip(channels, inputs)):
        volunteer.attach_tab(index, channel.remote, bundle, metrics)
        results.append(pull(channel.local.duplex.source, collect()))
        scheduler.call_later(
            index * stagger, channel.local.duplex.sink, from_iterable(tab_inputs)
        )
    return results


def one_core(name):
    return dataclasses.replace(device_by_name(name), cores=1)


class TestSimDevice:
    """The device model of a :class:`SimVolunteer`."""

    def test_task_duration_matches_rate(self, scheduler, network):
        volunteer = SimVolunteer(device_by_name("iphone-se"), scheduler)
        app = TimedApplication(scheduler, "collatz")
        metrics = MetricsCollector()
        open_tabs(volunteer, network, app, [Work(336.18)], metrics=metrics)
        scheduler.run(until=lambda: volunteer.cores[0] is not None)
        started = scheduler.now
        scheduler.run()
        assert app.finished[0] - started == pytest.approx(1.0)
        assert metrics.worker("iphone-se#0").compute_time == pytest.approx(1.0)

    def test_parallel_cores(self, scheduler, network):
        volunteer = SimVolunteer(device_by_name("mbpro-2016"), scheduler)  # 2 cores
        app = TimedApplication(scheduler)
        open_tabs(volunteer, network, app, [Work(1.0)], [Work(1.0)])
        scheduler.run()
        # both tasks ran at once: they finish a network delay apart, not a
        # task duration apart
        one = volunteer.task_duration("raytrace", 1.0)
        assert len(app.finished) == 2
        assert app.finished[1] - app.finished[0] < 0.1 * one

    def test_queueing_when_cores_busy(self, scheduler, network):
        volunteer = SimVolunteer(one_core("iphone-se"), scheduler)
        app = TimedApplication(scheduler)
        open_tabs(volunteer, network, app, [Work(1.0)], [Work(1.0)])
        scheduler.run()
        one = volunteer.task_duration("raytrace", 1.0)
        assert app.finished[1] - app.finished[0] == pytest.approx(one)

    def test_unknown_application_uses_default_rate(self, scheduler, network):
        volunteer = SimVolunteer(device_by_name("iphone-se"), scheduler)
        app = TimedApplication(scheduler, "my-custom-task")
        open_tabs(volunteer, network, app, [Work(volunteer.default_rate)])
        scheduler.run(until=lambda: volunteer.cores[0] is not None)
        started = scheduler.now
        scheduler.run()
        assert app.finished[0] - started == pytest.approx(1.0)

    def test_crash_drops_running_tasks(self, scheduler, network):
        volunteer = SimVolunteer(device_by_name("novena"), scheduler)
        app = TimedApplication(scheduler, "collatz")
        (results,) = open_tabs(volunteer, network, app, [Work(1000.0)])
        scheduler.run(until=lambda: volunteer.cores[0] is not None)
        scheduler.call_later(0.1, volunteer.crash)
        scheduler.run()
        assert app.finished == []  # the task never completed
        assert volunteer.crashed and volunteer.items_processed == 0
        assert volunteer.cores == [None] * len(volunteer.cores)
        assert not results.done  # crash-stop: the master hears nothing

    def test_execute_after_crash_reports_error(self, scheduler, network):
        volunteer = SimVolunteer(device_by_name("novena"), scheduler)
        volunteer.crash()
        app = TimedApplication(scheduler, "collatz")
        (results,) = open_tabs(
            volunteer, network, app, [Work(1.0)],
            heartbeats_enabled=True, heartbeat_interval=0.5, heartbeat_timeout=1.5,
        )
        scheduler.run(until=lambda: results.done)
        # nothing ran; the master's heartbeat reports the silent tab
        assert app.finished == [] and volunteer.last_completion_at is None
        assert results.value == []
        assert isinstance(results.end, Exception)


class TestTimerHandles:
    """A volunteer keeps only the step handles that can still fire."""

    @pytest.mark.parametrize("task_chunk", [None, 0.25])
    def test_finished_tasks_leave_no_handle_behind(self, scheduler, network, task_chunk):
        volunteer = SimVolunteer(device_by_name("mbpro-2016"), scheduler)  # 2 cores
        volunteer.task_chunk = task_chunk
        refs = []

        def inputs():
            for _ in range(4):
                yield from tracked(refs, 1.0)

        # three tabs on two cores: the third tab's tasks queue
        app = TimedApplication(scheduler)
        results = open_tabs(volunteer, network, app, inputs(), inputs(), inputs())
        scheduler.run()
        assert [len(result.value) for result in results] == [4, 4, 4]
        assert volunteer.cores == [None, None]
        # A task is reachable only through its pending step: once the last
        # step fired, refcounting alone frees it and its value — the
        # volunteer (still alive) keeps none of the finished tasks
        # reachable, and nothing waits for the cyclic collector.
        assert [ref() for ref in refs] == [None] * 12

    def test_crashed_tasks_are_freed_once_their_step_leaves(self, scheduler, network):
        volunteer = SimVolunteer(one_core("novena"), scheduler)
        volunteer.task_chunk = 100.0
        app = TimedApplication(scheduler, "collatz")
        running, queued = [], []
        open_tabs(volunteer, network, app, tracked(running, 1000.0), tracked(queued, 1000.0))
        scheduler.run(until=lambda: volunteer.cores[0] is not None)
        chunk = volunteer.task_duration("collatz", 1000.0) / 10
        scheduler.run_until(scheduler.now + 2.5 * chunk)  # mid-task: the third chunk pending
        assert running[0]() is not None and queued[0]() is not None
        volunteer.crash()
        assert queued[0]() is None  # the queue was cleared
        assert running[0]() is not None  # the cancelled step is still queued
        scheduler.run()  # ... until the scheduler drops it
        assert scheduler.pending() == 0
        assert running[0]() is None
        assert app.finished == []

    def test_crash_mid_task_cancels_the_pending_step(self, scheduler, network):
        volunteer = SimVolunteer(one_core("novena"), scheduler)
        volunteer.task_chunk = 100.0
        app = TimedApplication(scheduler, "collatz")
        open_tabs(volunteer, network, app, [Work(1000.0)], [Work(1000.0)])
        scheduler.run(until=lambda: volunteer.cores[0] is not None)
        chunk = volunteer.task_duration("collatz", 1000.0) / 10
        scheduler.run_until(scheduler.now + 2.5 * chunk)  # two chunks done, the third pending
        handle = volunteer.cores[0]
        assert handle is not None and not handle.cancelled
        volunteer.crash()
        assert handle.cancelled and volunteer.cores[0] is None
        before = scheduler.events_processed
        scheduler.run()
        assert scheduler.events_processed == before  # nothing left to fire
        assert app.finished == []  # neither the running nor the queued task

    def test_queued_task_behind_a_busy_core_still_starts(self, scheduler, network):
        volunteer = SimVolunteer(one_core("iphone-se"), scheduler)
        volunteer.task_chunk = 0.5
        app = TimedApplication(scheduler)
        one = volunteer.task_duration("raytrace", 1.0)
        # the tabs' values arrive in tab order while the first one runs
        results = open_tabs(
            volunteer, network, app, [Work(1.0)], [Work(1.0)], [Work(1.0)],
            stagger=one / 8,
        )
        scheduler.run(until=lambda: volunteer.cores[0] is not None)
        started = scheduler.now
        scheduler.run()
        # first in, first out, each one full task after the one before
        finished = [result.value[0] - started for result in results]
        assert finished == pytest.approx([one, 2 * one, 3 * one])
        assert volunteer.cores[0] is None
