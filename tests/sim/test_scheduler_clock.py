"""Tests for the virtual clock, scheduler, network model, failures and metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sched import EventLoopScheduler
from repro.sim.clock import VirtualClock
from repro.sim.failures import ChurnModel, FailureEvent, FailureSchedule
from repro.sim.matrix import run_cell, scale_cell
from repro.sim.metrics import MetricsCollector
from repro.sim.network import (
    LAN_PROFILE,
    LOOPBACK_PROFILE,
    NetworkModel,
    VPN_PROFILE,
    WAN_PROFILE,
    profile_for_setting,
)
from repro.sim.scheduler import Scheduler


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        clock.advance_to(7.5)
        clock.advance_to(7.5)  # standing still is not going backwards
        assert clock.now == 7.5

    def test_cannot_go_backwards(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)
        assert clock.now == 10.0


class TestScheduler:
    def test_events_run_in_time_order(self, scheduler):
        order = []
        scheduler.call_later(3.0, lambda: order.append("c"))
        scheduler.call_later(1.0, lambda: order.append("a"))
        scheduler.call_later(2.0, lambda: order.append("b"))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, scheduler):
        order = []
        for name in "abc":
            scheduler.call_at(1.0, lambda n=name: order.append(n))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, scheduler):
        times = []
        scheduler.call_later(4.5, lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == [4.5]

    def test_run_until_leaves_future_events(self, scheduler):
        fired = []
        scheduler.call_later(1.0, lambda: fired.append(1))
        scheduler.call_later(5.0, lambda: fired.append(5))
        scheduler.run_until(2.0)
        assert fired == [1]
        assert scheduler.now == 2.0
        assert scheduler.pending() == 1

    def test_cancellation(self, scheduler):
        fired = []
        event = scheduler.call_later(1.0, lambda: fired.append(1))
        event.cancel()
        scheduler.run()
        assert fired == []

    def test_cannot_schedule_in_the_past(self, scheduler):
        scheduler.call_later(1.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.call_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            scheduler.call_later(-1.0, lambda: None)

    def test_run_until_condition(self, scheduler):
        counter = {"n": 0}

        def tick():
            counter["n"] += 1
            scheduler.call_later(1.0, tick)

        scheduler.call_later(1.0, tick)
        scheduler.run(until=lambda: counter["n"] >= 5)
        assert counter["n"] == 5

    def test_max_events_guard(self, scheduler):
        scheduler.max_events = 10

        def forever():
            scheduler.call_soon(forever)

        scheduler.call_soon(forever)
        with pytest.raises(SimulationError):
            scheduler.run()

    def test_events_processed_counter(self, scheduler):
        for _ in range(5):
            scheduler.call_soon(lambda: None)
        scheduler.run()
        assert scheduler.events_processed == 5


class TestNetworkModel:
    def test_profile_for_setting(self):
        assert profile_for_setting("lan") is LAN_PROFILE
        assert profile_for_setting("VPN") is VPN_PROFILE
        assert profile_for_setting("wan") is WAN_PROFILE
        with pytest.raises(ValueError):
            profile_for_setting("mars")

    def test_latency_ordering(self):
        assert LAN_PROFILE.latency < VPN_PROFILE.latency < WAN_PROFILE.latency

    def test_loopback_for_same_host(self):
        model = NetworkModel(default_profile=WAN_PROFILE)
        assert model.profile("x", "x") is LOOPBACK_PROFILE

    def test_delay_includes_transfer_time(self):
        model = NetworkModel(default_profile=LAN_PROFILE, seed=1)
        small = model.delay("a", "b", 100)
        large = model.delay("a", "b", 10_000_000)
        assert large > small

    def test_specific_link_overrides_default(self):
        model = NetworkModel(default_profile=LAN_PROFILE, seed=1)
        model.set_link("a", "b", WAN_PROFILE)
        assert model.profile("a", "b") is WAN_PROFILE
        assert model.profile("b", "a") is WAN_PROFILE
        assert model.profile("a", "c") is LAN_PROFILE

    def test_byte_accounting(self):
        model = NetworkModel(default_profile=LAN_PROFILE, seed=1)
        model.delay("a", "b", 500)
        model.delay("a", "b", 700)
        assert model.total_bytes() == 1200

    def test_deterministic_with_seed(self):
        first = NetworkModel(default_profile=WAN_PROFILE, seed=7)
        second = NetworkModel(default_profile=WAN_PROFILE, seed=7)
        assert [first.delay("a", "b", 100) for _ in range(5)] == [
            second.delay("a", "b", 100) for _ in range(5)
        ]

    def test_rtt(self):
        assert LAN_PROFILE.rtt == pytest.approx(2 * LAN_PROFILE.latency)


class TestFailures:
    def test_schedule_ordering(self):
        schedule = FailureSchedule()
        schedule.crash(5.0, "b").crash(1.0, "a").join(3.0, "c")
        assert [event.time for event in schedule] == [1.0, 3.0, 5.0]

    def test_events_for(self):
        schedule = FailureSchedule().crash(1.0, "x").crash(2.0, "y").leave(3.0, "x")
        assert len(schedule.events_for("x")) == 2

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            FailureEvent(time=1.0, worker_id="x", kind="explode")

    def test_churn_model_generates_crashes(self):
        churn = ChurnModel(mean_uptime=10.0, seed=42)
        schedule = churn.schedule_for(["a", "b", "c"], horizon=100.0)
        assert len(schedule) >= 1
        assert all(event.kind == "crash" for event in schedule)

    def test_churn_model_with_rejoin(self):
        churn = ChurnModel(mean_uptime=5.0, mean_downtime=2.0, rejoin=True, seed=1)
        schedule = churn.schedule_for(["a"], horizon=100.0)
        kinds = {event.kind for event in schedule}
        assert "crash" in kinds and "join" in kinds

    def test_churn_validation(self):
        with pytest.raises(ValueError):
            ChurnModel(mean_uptime=0)


class TestMetrics:
    def test_throughput_report(self):
        metrics = MetricsCollector()
        metrics.start_window(0.0)
        metrics.record_work("fast", timestamp=1.0, duration=0.1)
        metrics.record_work("fast", timestamp=2.0, duration=0.1)
        metrics.record_work("slow", timestamp=3.0, duration=0.5)
        metrics.record_output(3)
        metrics.end_window(10.0)
        report = metrics.report("collatz", "lan")
        assert report.total_items == 3
        assert report.per_worker_items == {"fast": 2, "slow": 1}
        assert report.total_throughput == pytest.approx(0.3)
        assert report.per_worker_share["fast"] == pytest.approx(66.67, abs=0.1)
        assert report.output_throughput == pytest.approx(0.3)

    def test_disabled_collection_ignores_records(self):
        metrics = MetricsCollector()
        metrics.enabled = False
        metrics.record_work("w", 1.0, 0.1)
        metrics.record_output()
        metrics.start_window(5.0)
        metrics.record_work("w", 6.0, 0.1)
        metrics.end_window(10.0)
        report = metrics.report("app", "lan")
        assert report.total_items == 1
        assert report.output_items == 0

    def test_report_requires_window(self):
        metrics = MetricsCollector()
        with pytest.raises(ValueError):
            metrics.report("a", "lan")

    def test_worker_utilisation(self):
        metrics = MetricsCollector()
        metrics.record_work("w", 1.0, 2.0)
        assert metrics.worker("w").utilisation(4.0) == pytest.approx(0.5)


class TestSchedulerStepping:
    def test_step_processes_exactly_one_event(self, scheduler):
        fired = []
        scheduler.call_later(1.0, lambda: fired.append("a"))
        scheduler.call_later(2.0, lambda: fired.append("b"))
        assert scheduler.step() is True
        assert fired == ["a"]
        assert scheduler.now == 1.0
        assert scheduler.step() is True
        assert fired == ["a", "b"]
        assert scheduler.step() is False

    def test_next_event_time_skips_cancelled_heads(self, scheduler):
        doomed = scheduler.call_later(0.5, lambda: None)
        scheduler.call_later(2.0, lambda: None)
        doomed.cancel()
        assert scheduler.next_event_time() == 2.0
        assert scheduler.step() is True
        assert scheduler.next_event_time() is None

    def test_step_on_empty_queue(self, scheduler):
        assert scheduler.next_event_time() is None
        assert scheduler.step() is False


class TestHeapOrder:
    """The heap holds ``(time, seq, event)`` tuples: the firing order is
    the sort order of ``(time, seq)`` over the live events, nothing else."""

    #: few distinct delays, so many events share an instant
    schedules = st.lists(
        st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), st.booleans()),
        max_size=40,
    )

    @staticmethod
    def build(schedule):
        """Schedule ``(delay, cancel?)`` pairs; returns the scheduler, the
        list the callbacks append their index to, and the live events as
        ``(time, seq, index)`` in the order they must fire."""
        sim = Scheduler(VirtualClock())
        fired = []
        events = [
            sim.call_later(delay, fired.append, index)
            for index, (delay, _cancel) in enumerate(schedule)
        ]
        for event, (_delay, cancel) in zip(events, schedule):
            if cancel:
                event.cancel()
        live = sorted(
            (event.time, event.seq, index)
            for index, event in enumerate(events)
            if not event.cancelled
        )
        return sim, fired, live

    @settings(max_examples=150, deadline=None)
    @given(schedule=schedules)
    def test_firing_order_is_time_then_sequence(self, schedule):
        sim, fired, live = self.build(schedule)
        assert sim.pending() == len(schedule)  # cancelled ones included
        sim.run()
        assert fired == [index for _time, _seq, index in live]
        assert sim.events_processed == len(live)
        assert sim.pending() == 0

    @settings(max_examples=150, deadline=None)
    @given(schedule=schedules)
    def test_next_event_time_is_exact_step_by_step(self, schedule):
        sim, fired, live = self.build(schedule)
        for when, _seq, index in live:
            assert sim.next_event_time() == when
            assert sim.step()
            assert fired[-1] == index and sim.now == when
        assert sim.next_event_time() is None
        assert not sim.step()

    @settings(max_examples=150, deadline=None)
    @given(schedule=schedules, until=st.sampled_from([0.0, 0.25, 1.0, 1.75, 3.0]))
    def test_run_until_fires_nothing_later_than_its_bound(self, schedule, until):
        sim, fired, live = self.build(schedule)
        sim.run_until(until)
        assert fired == [index for when, _seq, index in live if when <= until]
        assert sim.now == until
        sim.run()
        assert fired == [index for _time, _seq, index in live]

    @settings(max_examples=150, deadline=None)
    @given(schedule=schedules, until=st.sampled_from([0.0, 0.25, 1.0, 1.75, 3.0]))
    def test_a_bounded_loop_run_fires_what_run_until_fires(self, schedule, until):
        """``EventLoopScheduler.run(until=...)`` on the simulation's heap is
        ``run_until``: the same events, in the same order, the same clock."""
        sim, fired, live = self.build(schedule)
        with EventLoopScheduler() as sched:
            sched.register_sim(sim)
            sched.run(until=until)
            assert fired == [index for when, _seq, index in live if when <= until]
            assert sim.now == until
            sched.run(until=3.0)
        assert fired == [index for _time, _seq, index in live]
        assert sim.events_processed == len(live)


class TestCellDeterminism:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_runs_of_a_scale_cell_agree(self, seed):
        first = run_cell(scale_cell(volunteers=50, inputs=150, seed=seed))
        second = run_cell(scale_cell(volunteers=50, inputs=150, seed=seed))
        assert first.outputs == second.outputs
        assert first.result.completed_at == second.result.completed_at
        assert first.events_processed == second.events_processed
