"""Unit tests for the asyncio event-loop scheduler subsystem."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.distributed_map import DistributedMap
from repro.errors import PandoError
from repro.net.endpoint import Endpoint
from repro.pullstream import Pushable, collect, drain, find, pull, values
from repro.sched import EventLoopScheduler, EventSource
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import Scheduler

SLEEPER = "repro.pool.workloads:sleep_echo"


class TestRunWithPools:
    def test_two_pools_on_one_master_both_deliver(self):
        with DistributedMap(batch_size=2) as dmap:
            inputs = [{"sleep": 0.005, "i": i} for i in range(12)]
            sink = pull(values(inputs), dmap, collect())
            dmap.add_process_pool(SLEEPER, processes=1)
            dmap.add_process_pool(SLEEPER, processes=1)
            dmap.drive(sink, timeout=30)
            assert sink.result() == inputs
            delivered = [
                handle.pool.results_returned for handle in dmap.workers.values()
            ]
            assert sum(delivered) == 12
            assert all(count > 0 for count in delivered)
            assert dmap.scheduler.dispatches > 0

    def test_pools_are_registered_sources(self):
        with DistributedMap(batch_size=1) as dmap:
            pull(values([1, 2, 3]), dmap, collect())
            handle = dmap.add_process_pool("repro.pool.workloads:echo", processes=1)
            assert dmap.scheduler.sources == [handle.pool]
            assert handle.pool.scheduler is dmap.scheduler

    def test_scheduler_is_reusable_across_runs(self):
        sched = EventLoopScheduler()
        try:
            for _round in range(2):
                with DistributedMap(batch_size=1, scheduler=sched) as dmap:
                    sink = pull(values([1, 2, 3]), dmap, collect())
                    dmap.add_process_pool(
                        "repro.pool.workloads:times10", processes=1
                    )
                    dmap.drive(sink, timeout=30)
                    assert sink.result() == [10, 20, 30]
        finally:
            sched.close()

    @pytest.mark.parametrize("kwargs", [{}, {"scheduler": "asyncio"}])
    def test_owned_scheduler_closes_with_the_map(self, kwargs):
        # Every map has a scheduler; the literal is a synonym of the default.
        dmap = DistributedMap(batch_size=1, **kwargs)
        assert isinstance(dmap.scheduler, EventLoopScheduler)
        dmap.close()
        assert dmap.scheduler.closed

    def test_shared_scheduler_survives_map_close(self):
        sched = EventLoopScheduler()
        dmap = DistributedMap(batch_size=1, scheduler=sched)
        dmap.close()
        assert not sched.closed
        sched.close()

    def test_unknown_scheduler_string_rejected(self):
        with pytest.raises(ValueError):
            DistributedMap(scheduler="uvloop")


class TestOneWaitPath:
    """Every source wakes the pump the same way — through the loop: a
    pool's pipes on its selector, a port through the thread-safe wake."""

    def test_pool_only_drive_wakes_on_its_pipe_readers(self, monkeypatch):
        def recording(cls, name, log):
            original = getattr(cls, name)
            monkeypatch.setattr(
                cls, name, lambda self, *args: (log.append(self), original(self, *args))[1]
            )

        crossings, watched, unwatched = [], [], []
        recording(EventLoopScheduler, "wake", crossings)
        recording(Endpoint, "watch", watched)
        recording(Endpoint, "close", unwatched)
        with DistributedMap(batch_size=1) as dmap:
            inputs = [{"sleep": 0.005, "i": i} for i in range(8)]
            sink = pull(values(inputs), dmap, collect())
            handle = dmap.add_process_pool(SLEEPER, processes=1)
            # The pipe went on the loop's selector when the child started.
            assert watched == [handle.pool.children[0]]
            dmap.drive(sink, timeout=30)
            assert sink.result() == inputs
            assert dmap.scheduler.wakeups > 0
            # Nothing crossed over from another thread into this map's
            # scheduler: the sink reports completion by raising the loop's
            # stop flag, on the loop thread.  (Another scheduler's thread
            # left over from an earlier test may still wake its own loop.)
            assert [sched for sched in crossings if sched is dmap.scheduler] == []
        # Shutdown took the pipe off the selector as it closed it.
        assert unwatched == watched

    def test_a_port_registered_mid_run_wakes_the_same_wait(self):
        # A safety net far longer than the test: only a real wake ends it.
        sched = EventLoopScheduler(poll_interval=5.0)
        dmap = DistributedMap(batch_size=1, scheduler=sched)
        pushable = Pushable()
        port_sink = collect()(pushable)
        threads = []

        def producer(port):
            time.sleep(0.3)  # the pool has long drained: the pump is idle
            port.push("late")
            port.end()

        def on_result(_value):
            if threads:
                return
            port = sched.register_pushable(pushable)
            threads.append(threading.Thread(target=producer, args=(port,)))
            threads[0].start()

        try:
            inputs = [{"sleep": 0.005, "i": i} for i in range(4)]
            pool_sink = pull(values(inputs), dmap, drain(op=on_result))
            dmap.add_process_pool(SLEEPER, processes=1)
            started = time.monotonic()
            sched.run(pool_sink, port_sink, timeout=30)
            elapsed = time.monotonic() - started
            threads[0].join(10)
            assert port_sink.result() == ["late"]
            # The producer thread's push woke the loop: nowhere near the
            # 5-second safety-net poll.
            assert elapsed < 3.0
        finally:
            dmap.close()
            sched.close()

    def test_a_pool_beside_an_always_ready_source_is_still_read(self):
        """The pump only arms sources before it waits, and with a source
        that is always ready it never waits: the pool has to put its pipes
        on the selector itself, the moment it starts its children."""

        class Busy(EventSource):
            def ready(self):
                return True

            def dispatch(self):
                return True

            def live(self):
                return True

        with DistributedMap(batch_size=1) as dmap:
            dmap.scheduler.register(Busy())
            sink = pull(values([1, 2, 3]), dmap, collect())
            dmap.add_process_pool("repro.pool.workloads:times10", processes=1)
            dmap.drive(sink, timeout=30)
            assert sink.result() == [10, 20, 30]


class TestCancellationFanOut:
    def test_find_hit_fans_out_to_the_pool(self):
        """Cancellation during dispatch: the hit aborts mid-run and the
        fan-out reaches the pool at once, whose frames in flight are never
        delivered."""
        with DistributedMap(batch_size=1) as dmap:
            inputs = [{"sleep": 0.05, "i": i} for i in range(30)]
            sink = pull(values(inputs), dmap, find(lambda v: v["i"] == 1))
            dmap.add_process_pool(SLEEPER, processes=2)
            dmap.drive(sink, timeout=60)
            assert sink.result()["i"] == 1
            assert sink.aborted
            pool = next(iter(dmap.workers.values())).pool
            # The frames in flight at the hit never came back.
            assert pool.results_returned < pool.tasks_submitted
            # The hit arrived on the delivery that completed the sink, so
            # the fan-out ran after the loop — once, and traced.
            fanouts = dmap.obs.trace.events("abort_fanout")
            assert len(fanouts) == 1


class TestGenericAbortFanOut:
    def test_run_without_on_abort_forces_cancellation_across_sources(self):
        """A raw scheduler run (no DistributedMap, no on_abort) must honour
        the module's promise: the abort predicate's first True cancels every
        registered pool's not-yet-running futures."""
        sched = EventLoopScheduler()
        dmap = DistributedMap(batch_size=1, scheduler=sched)
        try:
            inputs = [{"sleep": 0.05, "i": index} for index in range(30)]
            sink = pull(values(inputs), dmap, find(lambda v: v["i"] == 1))
            dmap.add_process_pool(SLEEPER, processes=2)
            # Drive through the scheduler directly, bypassing drive()'s
            # on_abort plumbing: the generic forced fallback must fire.
            sched.run(sink, timeout=60, aborted=lambda: sink.aborted)
            assert sink.aborted
            pool = next(iter(dmap.workers.values())).pool
            assert pool.results_returned < pool.tasks_submitted
            assert len(dmap.obs.trace.events("abort_fanout")) == 1
        finally:
            dmap.close()
            sched.close()

    def test_port_sources_have_nothing_to_cancel(self):
        """The forced fan-out asks every source; a pushable port simply has
        no cancellable work."""
        sched = EventLoopScheduler()
        try:
            port = sched.register_pushable()
            sink = find(lambda value: value == 2)(port.pushable)
            for value in range(6):
                port.push(value)
            port.end()
            sched.run(sink, timeout=30, aborted=lambda: sink.aborted)
            assert sink.result() == 2
            assert sink.aborted
            assert sched.cancellations == 0
        finally:
            sched.close()


class TestFailureModes:
    def test_stall_raises_instead_of_hanging(self):
        """A shard no worker serves can never complete: the scheduler must
        diagnose the stall, not wait forever."""
        with DistributedMap(batch_size=1, shards=2) as dmap:
            sink = pull(values(list(range(8))), dmap, collect())
            # Only shard 0 gets a pool; shard 1 starves.
            dmap.add_process_pool(
                "repro.pool.workloads:echo", processes=1, worker_id="only"
            )
            with pytest.raises(PandoError, match="stalled"):
                dmap.drive(sink, timeout=30)
            assert dmap.scheduler.stalls == 1
            assert len(dmap.obs.trace.events("pump_stall")) == 1

    def test_zero_timeout_fires_on_the_first_round_of_a_pool_only_map(self):
        with DistributedMap(batch_size=1) as dmap:
            sink = pull(values([{"sleep": 0.2, "i": 0}]), dmap, collect())
            dmap.add_process_pool(SLEEPER, processes=1)
            with pytest.raises(PandoError, match="timed out"):
                dmap.drive(sink, timeout=0)
            assert dmap.scheduler.rounds == 0
            assert len(dmap.obs.trace.events("pump_timeout")) == 1

    def test_timeout_raises(self):
        sched = EventLoopScheduler(poll_interval=0.01)
        try:
            port = sched.register_pushable()
            sink = drain()(port.pushable)
            started = time.monotonic()
            with pytest.raises(PandoError, match="timed out"):
                sched.run(sink, timeout=0.05)
            assert time.monotonic() - started < 5.0
        finally:
            sched.close()

    @pytest.mark.parametrize("kwargs", [{"shards": 1}, {"shards": 2, "ordered": False}])
    def test_a_sink_that_raises_on_a_pool_result_raises_out_of_drive(self, kwargs):
        """A pool result goes down the stream from a loop reader callback,
        where asyncio logs and drops an escaping exception: the scheduler
        has to carry it to ``drive()`` itself, not report a stall."""
        seen = []

        def on_result(value):
            seen.append(value)
            if len(seen) == 5:
                raise RuntimeError("the sink failed on its 5th result")

        with DistributedMap(batch_size=1, **kwargs) as dmap:
            sink = pull(values(list(range(40))), dmap, drain(on_result))
            for _ in range(kwargs["shards"]):
                dmap.add_process_pool("repro.pool.workloads:square", processes=2)
            with pytest.raises(RuntimeError, match="5th result"):
                dmap.drive(sink, timeout=5)
            assert len(seen) == 5
            assert dmap.scheduler.stalls == 0

    def test_a_sink_that_raises_on_a_volunteers_result_raises_out_of_drive(self):
        """A volunteer's result goes down the stream from the reader callback
        of its socket, exactly as a pool's does: same rule, same carrier."""
        from repro.worker import run_volunteer

        seen = []

        def on_result(value):
            seen.append(value)
            if len(seen) == 3:
                raise RuntimeError("the sink failed on its 3rd result")

        with DistributedMap(batch_size=1) as dmap:
            sink = pull(values(list(range(20))), dmap, drain(on_result))
            gateway = dmap.serve_volunteers(fn_ref="operator:neg")
            volunteer = threading.Thread(target=run_volunteer, args=(gateway.url,), daemon=True)
            volunteer.start()
            with pytest.raises(RuntimeError, match="3rd result"):
                dmap.drive(sink, timeout=10)
            assert seen == [0, -1, -2]
            assert dmap.scheduler.stalls == 0
        volunteer.join(10)
        assert not volunteer.is_alive()

    def test_run_requires_a_sink(self):
        sched = EventLoopScheduler()
        try:
            with pytest.raises(PandoError, match="at least one sink"):
                sched.run()
        finally:
            sched.close()

    def test_duplicate_registration_rejected(self):
        sched = EventLoopScheduler()
        try:
            port = sched.register_pushable()
            with pytest.raises(PandoError, match="already registered"):
                sched.register(port)
        finally:
            sched.close()

    def test_register_after_close_rejected(self):
        sched = EventLoopScheduler()
        sched.close()
        with pytest.raises(PandoError, match="closed"):
            sched.register_pushable()

    def test_invalid_poll_interval_rejected(self):
        with pytest.raises(ValueError):
            EventLoopScheduler(poll_interval=0)


class TestPushablePort:
    def test_values_pushed_from_another_thread_arrive_on_the_loop(self):
        sched = EventLoopScheduler()
        try:
            port = sched.register_pushable()
            seen_threads = set()
            received = []

            def observe(value):
                seen_threads.add(threading.get_ident())
                received.append(value)

            sink = drain(op=observe)(port.pushable)

            def producer():
                for index in range(20):
                    port.push(index)
                port.end()

            thread = threading.Thread(target=producer)
            thread.start()
            sched.run(sink, timeout=30)
            thread.join()
            assert received == list(range(20))
            assert port.values_ported == 20
            # The producer ran elsewhere; delivery happened on this thread.
            assert seen_threads == {threading.get_ident()}
        finally:
            sched.close()

    def test_error_terminates_the_stream(self):
        sched = EventLoopScheduler()
        try:
            port = sched.register_pushable()
            sink = collect()(port.pushable)
            port.push(1)
            port.error(RuntimeError("producer exploded"))
            sched.run(sink, timeout=30)
            assert sink.done
            with pytest.raises(RuntimeError, match="exploded"):
                sink.result()
        finally:
            sched.close()

    def test_push_after_end_is_ignored(self):
        sched = EventLoopScheduler()
        try:
            port = sched.register_pushable()
            sink = collect()(port.pushable)
            port.push(1)
            port.end()
            port.push(2)  # sealed: dropped
            sched.run(sink, timeout=30)
            assert sink.result() == [1]
            assert not port.live()
        finally:
            sched.close()


class TestSimIntegration:
    def test_sim_events_run_on_the_loop(self):
        sim = Scheduler(VirtualClock())
        fired = []
        sched = EventLoopScheduler()
        try:
            # the simulation's events become the loop's timers
            assert sched.register_sim(sim) is sim
            port = sched.register_pushable()
            sim.call_later(0.5, lambda: fired.append("a"))
            sim.call_later(1.0, lambda: (fired.append("b"), port.end()))
            sink = collect()(port.pushable)
            port.push("x")
            sched.run(sink, timeout=30)
            assert sink.result() == ["x"]
            assert fired == ["a", "b"]
            assert sim.now == pytest.approx(1.0)
        finally:
            sched.close()

    def test_time_scale_paces_virtual_time_against_the_wall_clock(self):
        from repro.pullstream import Pushable

        sim = Scheduler(VirtualClock())
        buffer = Pushable()
        # The simulated event fires 1 virtual second in; at a 0.05 scale the
        # loop timer must hold it back for ~50 ms of wall clock.  The sim
        # callback runs on the loop thread (inside a dispatch), so pushing
        # straight into the pushable is safe.
        sim.call_later(1.0, lambda: (buffer.push("late"), buffer.end()))
        sched = EventLoopScheduler(poll_interval=5.0)
        try:
            sched.register_sim(sim, time_scale=0.05)
            sink = collect()(buffer)
            started = time.monotonic()
            sched.run(sink, timeout=30)
            elapsed = time.monotonic() - started
            assert sink.result() == ["late"]
            assert elapsed >= 0.04
            # The 5-second poll interval cannot have been the wake-up: the
            # armed loop timer was.
            assert elapsed < 4.0
        finally:
            sched.close()

    def test_invalid_time_scale_rejected(self):
        sched = EventLoopScheduler()
        try:
            with pytest.raises(ValueError):
                sched.register_sim(Scheduler(VirtualClock()), time_scale=0)
        finally:
            sched.close()


class TestLoopTurns:
    """The pump gives the loop a turn by time, not by round: under a source
    that is never idle everything else is still served within a bound, and a
    run still stops on the very round that completes its sink."""

    @staticmethod
    def storm():
        """An unpaced sim whose one event re-schedules itself for ever."""
        sim = Scheduler(VirtualClock())

        def again():
            sim.call_later(0.001, again)

        sim.call_soon(again)
        return sim

    def test_a_thread_fed_port_is_served_within_50ms_of_a_storm(self):
        sched = EventLoopScheduler()
        try:
            sched.register_sim(self.storm())
            port = sched.register_pushable()
            latencies = []
            sink = drain(op=lambda sent: latencies.append(time.monotonic() - sent))(
                port.pushable
            )

            def producer():
                for _ in range(10):
                    time.sleep(0.01)
                    port.push(time.monotonic())
                port.end()

            thread = threading.Thread(target=producer)
            thread.start()
            sched.run(sink, timeout=30)
            thread.join(10)
            assert len(latencies) == 10
            assert max(latencies) < 0.05
        finally:
            sched.close()

    def test_a_thread_fed_port_is_served_in_a_fresh_interpreter(self):
        # The same storm with no earlier test's threads, pools or loops in
        # the process: the producer thread's GIL hand-off, not leftover
        # state, is what the 50 ms bound is about.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        node = (
            f"{__file__}::TestLoopTurns"
            "::test_a_thread_fed_port_is_served_within_50ms_of_a_storm"
        )
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stdout[-2000:]

    def test_the_deadline_fires_under_a_storm(self):
        sched = EventLoopScheduler()
        try:
            sched.register_sim(self.storm())
            sink = collect()(Pushable())  # never completes
            started = time.monotonic()
            with pytest.raises(PandoError, match="timed out"):
                sched.run(sink, timeout=0.2)
            assert time.monotonic() - started < 0.5
        finally:
            sched.close()

    def test_a_pool_beside_a_storm_delivers_exactly_once(self):
        with DistributedMap(batch_size=1) as dmap:
            dmap.scheduler.register_sim(self.storm())
            inputs = list(range(40))
            sink = pull(values(inputs), dmap, collect())
            handle = dmap.add_process_pool("repro.pool.workloads:square", processes=1)
            dmap.drive(sink, timeout=30)
            assert sink.result() == [value * value for value in inputs]
            assert handle.pool.results_returned == len(inputs)

    def test_the_run_stops_on_the_event_that_completes_the_sink(self):
        sim = Scheduler(VirtualClock())
        buffer = Pushable()
        sink = collect()(buffer)
        ran = []
        for index in range(1, 5000):
            sim.call_later(index * 0.001, ran.append, index)
        sim.call_later(5.0, lambda: (buffer.push("last"), buffer.end()))
        for index in range(100):  # still queued when the sink completes
            sim.call_later(6.0 + index, ran.append, "late")
        sched = EventLoopScheduler()
        try:
            sched.register_sim(sim)
            sched.run(sink, timeout=30)
            assert sink.result() == ["last"]
            assert ran == list(range(1, 5000))
            assert sim.events_processed == 5000
            assert sched.rounds == 5000
            assert sim.pending() == 100
        finally:
            sched.close()


class TestDispatchListener:
    def test_listener_observes_every_dispatch(self):
        sched = EventLoopScheduler()
        try:
            seen = []
            sched.add_dispatch_listener(lambda source: seen.append(source))
            port = sched.register_pushable()
            sink = collect()(port.pushable)
            for index in range(3):
                port.push(index)
            port.end()
            sched.run(sink, timeout=30)
            assert sink.result() == [0, 1, 2]
            assert seen == [port] * 4  # three values + the end marker
        finally:
            sched.close()
