"""Tests for the process-pool execution backend."""

from __future__ import annotations


import pytest

from repro.core import DistributedMap
from repro.errors import FrameCancelled, PandoError
from repro.pool import CancelFlag, ProcessPoolWorker, default_window, resolve_callable
from repro.pool.tasks import expects_callback, run_batch
from repro.pool.workloads import (
    crypto_search_inputs,
    large_payload_inputs,
    search_nonces,
)
from repro.pullstream import collect, pull, values


def node_increment(value, cb):
    """Module-level node-style function (picklable)."""
    cb(None, value + 1)


def failing_task(value):
    raise RuntimeError(f"cannot process {value!r}")


class TestFunctionRefs:
    def test_resolve_colon_reference(self):
        fn = resolve_callable("repro.pool.workloads:square")
        assert fn(6) == 36

    def test_resolve_dotted_reference(self):
        fn = resolve_callable("repro.pool.workloads.square")
        assert fn(6) == 36

    def test_resolve_callable_passthrough(self):
        assert resolve_callable(node_increment) is node_increment

    def test_resolve_file_reference(self, tmp_path):
        module = tmp_path / "triple.py"
        module.write_text("def pando(value, cb):\n    cb(None, value * 3)\n")
        fn = resolve_callable(("file", str(module)))
        box = []
        fn(4, lambda err, result: box.append((err, result)))
        assert box == [(None, 12)]

    def test_unresolvable_reference_raises(self):
        with pytest.raises(PandoError):
            resolve_callable("repro.pool.workloads:does_not_exist")
        with pytest.raises(PandoError):
            resolve_callable(12345)

    def test_convention_detection(self):
        assert expects_callback(node_increment)
        assert not expects_callback(resolve_callable("repro.pool.workloads:square"))

    def test_one_value_frame_supports_both_conventions(self):
        assert run_batch("repro.pool.workloads:square", [5]) == [25]
        assert run_batch(node_increment, [5]) == [6]

    def test_run_batch_preserves_order(self):
        assert run_batch("repro.pool.workloads:square", [1, 2, 3]) == [1, 4, 9]

    def test_node_style_error_is_raised(self):
        def bad(value, cb):
            cb(ValueError("nope"), None)

        with pytest.raises(ValueError):
            run_batch(bad, [1])

    def test_one_value_frame_stops_on_a_raised_flag(self):
        flag = CancelFlag()
        try:
            cancel = (flag.name, 1)
            assert run_batch("repro.pool.workloads:square", [5], None, cancel) == [25]
            flag.set()
            with pytest.raises(FrameCancelled) as raised:
                run_batch("repro.pool.workloads:square", [5], None, cancel)
            assert (raised.value.completed, raised.value.total) == (0, 1)
        finally:
            flag.close()


class TestInputBuilders:
    def test_large_payload_inputs_are_distinct_and_sized(self):
        items = large_payload_inputs(5, 4096)
        assert len(set(items)) == 5
        assert all(len(item) == 4096 for item in items)

    def test_crypto_search_inputs_hide_one_hit_behind_one_slow_attempt(self):
        items, nonce = crypto_search_inputs(
            400, values=7, hit_index=4, difficulty_bits=8
        )
        assert len(items) == 7
        # attempt 0 is the one slow full-range scan, the hit sits later
        assert [i for i, item in enumerate(items) if item["count"] == 400] == [0]
        results = [search_nonces(item) for item in items]
        assert [i for i, result in enumerate(results) if result["found"]] == [4]
        assert results[4]["nonce"] == nonce

    @pytest.mark.parametrize("hit_index", [0, 12, -1])
    def test_crypto_search_inputs_reject_a_bad_hit_index(self, hit_index):
        with pytest.raises(ValueError):
            crypto_search_inputs(10, values=12, hit_index=hit_index)


class TestProcessPoolWorker:
    def test_unpicklable_callable_fails_fast(self):
        with pytest.raises(PandoError):
            ProcessPoolWorker(lambda v: v)

    def test_default_window_covers_the_pool(self):
        assert default_window(4) == 5
        assert default_window(1) == 2

    def test_close_is_idempotent(self):
        pool = ProcessPoolWorker("repro.pool.workloads:echo", processes=1)
        pool.close()
        pool.close()
        assert pool.closed


class TestTerminationPrecedence:
    def test_read_after_close_reports_the_close_reason(self):
        """Regression: ``read`` checked ``_pending`` before ``_closed``, so a
        read after ``close()`` delivered a dropped frame and reported a
        bogus ``WorkerCrashed`` instead of the close reason."""
        from repro.pullstream import DONE, pushable

        pool = ProcessPoolWorker("repro.pool.workloads:sleep_echo", processes=1)
        source = pushable()
        pool.sink(source)
        source.push({"sleep": 0.2, "index": 0})
        source.push({"sleep": 0.2, "index": 1})
        assert pool.pending == 2
        pool.close()
        assert pool.pending == 0  # undelivered frames are dropped at shutdown
        answers = []
        pool.source(None, lambda end, value: answers.append((end, value)))
        assert answers == [(DONE, None)]

    def test_read_after_error_shutdown_reports_the_stored_error(self):
        boom = RuntimeError("torn down")
        pool = ProcessPoolWorker("repro.pool.workloads:echo", processes=1)
        pool._shutdown(boom)
        answers = []
        pool.source(None, lambda end, value: answers.append(end))
        assert answers == [boom]

    def test_a_parked_ask_is_answered_with_the_termination(self):
        """A result ask parked with nothing owed is answered by whatever ends
        the pool, with the read path's precedence (close error > upstream
        error > DONE)."""
        from repro.pullstream import pushable

        boom, upstream_failed = RuntimeError("torn down"), RuntimeError("upstream")
        for end_upstream, close_with, expected in (
            (False, boom, boom),
            (True, boom, boom),
            (True, None, upstream_failed),
        ):
            pool = ProcessPoolWorker("repro.pool.workloads:echo", processes=1)
            source = pushable()
            pool.sink(source)
            answers = []
            pool.source(None, lambda end, value: answers.append(end))
            assert answers == []  # parked: nothing is owed yet
            if close_with is not None:
                pool._upstream_ended = upstream_failed if end_upstream else None
                pool._shutdown(close_with)
            else:
                source.error(upstream_failed)
            assert answers == [expected]
            assert pool.closed


class TestSchedulerDelivery:
    """A pool registered with a scheduler is read by the scheduler's loop:
    an ask waits for a run instead of the pipes, and a reply goes down the
    stream from the reader callback that read it."""

    def test_a_registered_pool_is_read_by_the_run(self):
        from repro.core.limiter import Limiter
        from repro.sched import EventLoopScheduler

        frames = [{"sleep": 0.02, "index": index} for index in range(4)]
        with EventLoopScheduler() as sched:
            with ProcessPoolWorker(
                "repro.pool.workloads:sleep_echo", processes=1
            ) as pool:
                sched.register(pool)
                assert pool.scheduler is sched
                sink = pull(values(frames), Limiter(pool, 2), collect())
                # The ask did not wait on the pipes: it waits for a run.
                assert pool.pending == 2 and pool.live() and not sink.done
                sched.run(sink, timeout=30)
                assert sink.result() == frames
                assert not pool.live() and not pool.ready()

    def test_a_reply_read_between_runs_waits_for_the_next_run(self):
        """A reply the loop reads while no run turns it (``spin``) is
        filed and given a turn, but nothing goes down the stream until the
        next ``run()`` takes that turn in its first round."""
        import time

        from repro.core.limiter import Limiter
        from repro.sched import EventLoopScheduler

        frame = {"sleep": 0.0, "index": 7}
        with EventLoopScheduler() as sched:
            with ProcessPoolWorker(
                "repro.pool.workloads:sleep_echo", processes=1
            ) as pool:
                sched.register(pool)
                sink = pull(values([frame]), Limiter(pool, 1), collect())
                deadline = time.monotonic() + 30
                while not pool.ready() and time.monotonic() < deadline:
                    sched.spin(0.01)
                assert pool.ready(), "the reply was never read"
                assert pool.pending == 1 and pool.results_returned == 0
                assert not sink.done
                sched.run(sink, timeout=30)
                assert sink.result() == [frame]
                assert pool.results_returned == 1


class TestBarePool:
    """A pool no scheduler reads, behind ``Limiter(pool, 1)`` and a plain
    ``pull``: its source waits on the children's pipes itself."""

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_round_trips_in_order(self, transport):
        from repro.core.limiter import Limiter

        options = {"slot_size": 1 << 16, "slot_count": 4} if transport == "shm" else {}
        inputs = [bytes([index]) * 8192 for index in range(12)]
        with ProcessPoolWorker(
            "repro.pool.workloads:echo", processes=1, transport=transport, **options
        ) as pool:
            sink = pull(values(inputs), Limiter(pool, 1), collect())
            assert sink.result() == inputs
            assert pool.closed and pool.scheduler is None
        if transport == "shm":
            assert pool.ring.slots_acquired == pool.ring.slots_released > 0

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_close_mid_stream_ends_the_results(self, transport):
        from repro.core.limiter import Limiter
        from repro.pullstream import drain

        options = {"slot_size": 1 << 16, "slot_count": 4} if transport == "shm" else {}
        inputs = [bytes([index]) * 8192 for index in range(12)]
        seen = []
        with ProcessPoolWorker(
            "repro.pool.workloads:echo", processes=1, transport=transport, **options
        ) as pool:

            def on_value(value):
                seen.append(value)
                if len(seen) == 3:
                    pool.close()

            sink = pull(values(inputs), Limiter(pool, 1), drain(on_value))
            sink.result()
            # The frame submitted behind the third result was dropped.
            assert seen == inputs[:3]
            assert pool.closed and pool.pending == 0
        if transport == "shm":
            assert pool.ring.slots_acquired == pool.ring.slots_released


class TestDistributedMapPoolBackend:
    """Every case also runs on an ``ordered=False`` map (the subclass
    below); ``same`` compares the output as a multiset there."""

    ordered = True

    def same(self, results, expected):
        if self.ordered:
            assert results == expected
        else:
            assert sorted(results) == sorted(expected)

    def test_results_in_input_order(self):
        dmap = DistributedMap(batch_size=3, ordered=self.ordered)
        output = pull(values(list(range(20))), dmap, collect())
        handle = dmap.add_process_pool("repro.pool.workloads:square", processes=2)
        try:
            dmap.drive(output, timeout=60)
            self.same(output.result(), [value * value for value in range(20)])
        finally:
            dmap.close()
        assert handle.pool.values_dispatched == 20
        assert handle.pool.results_returned == 20
        # 20 values in frames of <= 3
        assert handle.pool.tasks_submitted == 7

    def test_node_style_function(self):
        dmap = DistributedMap(batch_size=2, ordered=self.ordered)
        output = pull(values([1, 2, 3, 4]), dmap, collect())
        dmap.add_process_pool(node_increment, processes=2)
        try:
            dmap.drive(output, timeout=60)
            self.same(output.result(), [2, 3, 4, 5])
        finally:
            dmap.close()

    def test_unbatched_frames(self):
        dmap = DistributedMap(batch_size=1, ordered=self.ordered)
        output = pull(values(list(range(6))), dmap, collect())
        handle = dmap.add_process_pool("repro.pool.workloads:echo", processes=1)
        try:
            dmap.drive(output, timeout=60)
            self.same(output.result(), list(range(6)))
        finally:
            dmap.close()
        assert handle.pool.tasks_submitted == 6

    def test_task_failure_is_a_worker_crash(self):
        """A raising task closes the pool sub-stream; borrowed values are
        re-lent and a healthy worker completes the stream (the same
        containment as a crashing browser tab)."""
        dmap = DistributedMap(batch_size=2, ordered=self.ordered)
        output = pull(values(list(range(6))), dmap, collect())
        handle = dmap.add_process_pool(failing_task, processes=1)
        try:
            with pytest.raises(PandoError, match="stalled"):
                dmap.drive(output, timeout=60)  # the only worker crashed
            assert handle.closed
            assert not output.done
            assert dmap.lender.relendable >= 1
            assert dmap.stats.substreams_failed == 1
            dmap.add_local_worker(lambda v, cb: cb(None, v))
            self.same(output.result(), list(range(6)))
        finally:
            dmap.close()

    def test_mixed_pool_and_local_workers(self):
        dmap = DistributedMap(batch_size=2, ordered=self.ordered)
        output = pull(values(list(range(24))), dmap, collect())
        dmap.add_process_pool("repro.pool.workloads:square", processes=2)
        dmap.add_local_worker(lambda v, cb: cb(None, v * v))
        try:
            dmap.drive(output, timeout=60)
            self.same(output.result(), [value * value for value in range(24)])
        finally:
            dmap.close()

    def test_stats_balance_after_pool_run(self):
        dmap = DistributedMap(batch_size=4, ordered=self.ordered)
        output = pull(values(list(range(17))), dmap, collect())
        dmap.add_process_pool("repro.pool.workloads:echo", processes=2)
        try:
            dmap.drive(output, timeout=60)
            output.result()
        finally:
            dmap.close()
        stats = dmap.stats
        assert stats.values_lent == (
            stats.results_received + dmap.lender.relendable + dmap.lender.outstanding
        )
        assert stats.results_delivered == 17

    def test_file_reference_backend(self, tmp_path):
        module = tmp_path / "double.py"
        module.write_text(
            "exports = {'/pando/1.0.0': lambda value, cb: cb(None, value * 2)}\n"
        )
        dmap = DistributedMap(batch_size=2, ordered=self.ordered)
        output = pull(values([1, 2, 3]), dmap, collect())
        dmap.add_process_pool(("file", str(module)), processes=1)
        try:
            dmap.drive(output, timeout=60)
            self.same(output.result(), [2, 4, 6])
        finally:
            dmap.close()

    def test_close_with_parked_result_ask_closes_substream(self):
        """Regression: close() while the pool source waits for input must
        answer the parked ask so the sub-stream closes and later values are
        lent to live workers instead of being stranded."""
        from repro.pullstream import pushable

        source = pushable()
        dmap = DistributedMap(batch_size=1, ordered=self.ordered)
        output = pull(source, dmap, collect())
        handle = dmap.add_process_pool("repro.pool.workloads:echo", processes=1)
        assert not handle.closed  # parked, waiting for the first input
        dmap.close()
        assert handle.closed
        source.push(1)
        dmap.add_local_worker(lambda v, cb: cb(None, v))
        source.end()
        self.same(output.result(), [1])
        assert dmap.lender.outstanding == 0

    def test_attach_after_abort_raises_without_spawning(self):
        from repro.pullstream import count, take

        dmap = DistributedMap(ordered=self.ordered)
        output = pull(count(100), dmap, take(2), collect())
        dmap.add_local_worker(lambda v, cb: cb(None, v))
        assert output.done
        with pytest.raises(PandoError):
            dmap.add_process_pool("repro.pool.workloads:echo", processes=1)
        assert dmap._pools == []


class TestUnorderedDistributedMapPoolBackend(TestDistributedMapPoolBackend):
    ordered = False
