"""Tests for device profiles (Table-2 catalogue) and simulated devices."""

from __future__ import annotations

import weakref

import pytest

from repro.devices import (
    ALL_DEVICES,
    APPLICATIONS,
    LAN_DEVICES,
    MASTER_DEVICE,
    SimDevice,
    VPN_DEVICES,
    WAN_DEVICES,
    device_by_name,
    devices_for_setting,
)
from repro.errors import WorkerCrashed


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


class TestSimDevice:
    def test_task_duration_matches_rate(self, scheduler):
        device = SimDevice(device_by_name("iphone-se"), scheduler)
        done = []
        device.execute("collatz", cost=336.18, callback=lambda err, d: done.append(scheduler.now))
        scheduler.run()
        assert done[0] == pytest.approx(1.0)

    def test_parallel_cores(self, scheduler):
        device = SimDevice(device_by_name("mbpro-2016"), scheduler)  # 2 cores
        finish_times = []
        for _ in range(2):
            device.execute("raytrace", 1.0, lambda err, d: finish_times.append(scheduler.now))
        scheduler.run()
        # both tasks ran in parallel: same completion time
        assert finish_times[0] == pytest.approx(finish_times[1])

    def test_queueing_when_cores_busy(self, scheduler):
        device = SimDevice(device_by_name("iphone-se"), scheduler, cores=1)
        finish_times = []
        for _ in range(2):
            device.execute("raytrace", 1.0, lambda err, d: finish_times.append(scheduler.now))
        scheduler.run()
        assert finish_times[1] == pytest.approx(2 * finish_times[0])

    def test_unknown_application_uses_default_rate(self, scheduler):
        device = SimDevice(device_by_name("iphone-se"), scheduler)
        done = []
        device.execute("my-custom-task", cost=device.default_rate, callback=lambda e, d: done.append(scheduler.now))
        scheduler.run()
        assert done[0] == pytest.approx(1.0)

    def test_crash_drops_running_tasks(self, scheduler):
        device = SimDevice(device_by_name("novena"), scheduler)
        completions = []
        device.execute("collatz", 1000.0, lambda err, d: completions.append(err))
        scheduler.call_later(0.1, device.crash)
        scheduler.run()
        assert completions == []  # the callback was never invoked
        assert device.crashed

    def test_execute_after_crash_reports_error(self, scheduler):
        device = SimDevice(device_by_name("novena"), scheduler)
        device.crash()
        errors = []
        device.execute("collatz", 1.0, lambda err, d: errors.append(err))
        assert isinstance(errors[0], WorkerCrashed)

    def test_crash_listener(self, scheduler):
        device = SimDevice(device_by_name("novena"), scheduler)
        crashed = []
        device.on_crash(lambda d: crashed.append(d.name))
        device.crash()
        device.crash()  # idempotent
        assert crashed == ["novena"]

    def test_utilisation_and_counters(self, scheduler):
        device = SimDevice(device_by_name("iphone-se"), scheduler, cores=1)
        device.execute("collatz", 336.18, lambda err, d: None)
        scheduler.run()
        assert device.tasks_completed == 1
        assert device.total_busy_time == pytest.approx(1.0)
        assert device.utilisation(window=2.0) == pytest.approx(0.5)


class _Completion:
    """A completion callback a test can hold weakly."""

    def __init__(self, log):
        self.log = log

    def __call__(self, err, duration):
        self.log.append(err)


class TestTimerHandles:
    """A device keeps only the step handles that can still fire."""

    @pytest.mark.parametrize("task_chunk", [None, 0.25])
    def test_finished_tasks_leave_no_handle_behind(self, scheduler, task_chunk):
        device = SimDevice(device_by_name("mbpro-2016"), scheduler)  # 2 cores
        device.task_chunk = task_chunk
        log, refs = [], []
        for _ in range(12):
            callback = _Completion(log)
            refs.append(weakref.ref(callback))
            device.execute("raytrace", 1.0, callback)
        del callback
        scheduler.run()
        assert log == [None] * 12
        assert all(core.pending is None for core in device.cores)
        # A task is reachable only through its pending step: once the last
        # step fired, refcounting alone frees it and its callback — the
        # device (still alive) keeps none of the finished tasks reachable,
        # and nothing waits for the cyclic collector.
        assert [ref() for ref in refs] == [None] * 12

    def test_crashed_tasks_are_freed_once_their_step_leaves(self, scheduler):
        device = SimDevice(device_by_name("novena"), scheduler, cores=1)
        device.task_chunk = 100.0
        log = []
        running, queued = _Completion(log), _Completion(log)
        device.execute("collatz", 1000.0, running)
        device.execute("collatz", 1000.0, queued)
        refs = [weakref.ref(running), weakref.ref(queued)]
        del running, queued
        chunk = device.task_duration("collatz", 1000.0) / 10
        scheduler.run_until(2.5 * chunk)  # mid-task: the third chunk pending
        device.crash()
        assert refs[1]() is None  # the queue was cleared
        assert refs[0]() is not None  # the cancelled step is still queued
        scheduler.run()  # ... until the scheduler drops it
        assert scheduler.pending() == 0
        assert [ref() for ref in refs] == [None, None]
        assert log == []

    def test_crash_mid_task_cancels_the_pending_step(self, scheduler):
        device = SimDevice(device_by_name("novena"), scheduler, cores=1)
        device.task_chunk = 100.0
        completions = []
        device.execute("collatz", 1000.0, lambda err, d: completions.append(err))
        device.execute("collatz", 1000.0, lambda err, d: completions.append(err))
        chunk = device.task_duration("collatz", 1000.0) / 10
        scheduler.run_until(2.5 * chunk)  # two chunks done, the third pending
        handle = device.cores[0].pending
        assert handle is not None and not handle.cancelled
        device.crash()
        assert handle.cancelled and device.cores[0].pending is None
        before = scheduler.events_processed
        scheduler.run()
        assert scheduler.events_processed == before  # nothing left to fire
        assert completions == []  # neither the running nor the queued task

    def test_queued_task_behind_a_busy_core_still_starts(self, scheduler):
        device = SimDevice(device_by_name("iphone-se"), scheduler, cores=1)
        device.task_chunk = 0.5
        finished = []
        for tag in "abc":
            device.execute(
                "raytrace", 1.0, lambda err, d, tag=tag: finished.append((tag, scheduler.now))
            )
        assert device.cores[0].pending is not None
        scheduler.run()
        one = device.task_duration("raytrace", 1.0)
        assert [tag for tag, _ in finished] == ["a", "b", "c"]
        assert [at for _, at in finished] == pytest.approx([one, 2 * one, 3 * one])
        assert device.cores[0].pending is None
