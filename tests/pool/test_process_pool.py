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

    def test_crypto_search_inputs_hide_one_hit_off_the_slow_shard(self):
        items, nonce = crypto_search_inputs(
            400, shards=3, values=7, hit_index=4, difficulty_bits=8
        )
        assert len(items) == 7
        # shard 0 carries the slow full-range scans, the hit sits elsewhere
        assert [i for i, item in enumerate(items) if item["count"] == 400] == [0, 3, 6]
        results = [search_nonces(item) for item in items]
        assert [i for i, result in enumerate(results) if result["found"]] == [4]
        assert results[4]["nonce"] == nonce

    @pytest.mark.parametrize("hit_index", [0, 12, 4])
    def test_crypto_search_inputs_reject_a_bad_hit_index(self, hit_index):
        with pytest.raises(ValueError):
            crypto_search_inputs(10, shards=2, values=12, hit_index=hit_index)


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

    def test_maybe_finish_honours_the_close_error(self):
        """Regression: ``_maybe_finish`` ignored an error stored in
        ``_closed`` and reported from ``_upstream_ended`` only; it now shares
        the read path's precedence (close error > upstream error > DONE)."""
        from repro.pullstream import DONE

        pool = ProcessPoolWorker("repro.pool.workloads:echo", processes=1)
        boom = RuntimeError("torn down")
        answers = []
        pool._result_waiting = lambda end, value: answers.append(end)
        pool._closed = boom
        pool._upstream_ended = DONE
        pool._maybe_finish()
        assert answers == [boom]
        assert pool._termination() is boom
        pool.close()


class TestNonBlockingDelivery:
    def test_parked_ask_is_delivered_by_poll(self):
        from repro.pullstream import DONE, pushable

        pool = ProcessPoolWorker(
            "repro.pool.workloads:sleep_echo", processes=1, blocking=False
        )
        try:
            source = pushable()
            pool.sink(source)
            answers = []
            pool.source(None, lambda end, value: answers.append((end, value)))
            frame = {"sleep": 0.05, "index": 41}
            source.push(frame)
            assert answers == []  # parked: the result is not awaited inline
            while not pool.poll():
                pass
            assert answers == [(None, frame)]
            source.end()
            answers.clear()
            # With the upstream drained and ended, the ask answers inline.
            pool.source(None, lambda end, value: answers.append((end, value)))
            assert answers == [(DONE, None)]
        finally:
            pool.close()

    def test_head_future_and_waiting_expose_driver_state(self):
        """What a driver reads off a pool: ``waiting`` (an ask is parked),
        ``pending`` (frames owed), ``head_started`` (the oldest is in a
        child) and ``deliverable`` (``poll`` would answer the ask)."""
        from repro.pullstream import pushable

        pool = ProcessPoolWorker(
            "repro.pool.workloads:sleep_echo", processes=1, blocking=False
        )
        try:
            source = pushable()
            pool.sink(source)
            assert (pool.pending, pool.head_started) == (0, False)
            pool.source(None, lambda end, value: None)
            assert pool.waiting and not pool.deliverable
            source.push({"sleep": 0.05, "index": 0})
            assert (pool.pending, pool.head_started) == (1, True)
            assert not pool.deliverable  # still computing
            while not pool.poll():
                pass
            assert pool.pending == 0
        finally:
            pool.close()


class TestDistributedMapPoolBackend:
    def test_results_in_input_order(self):
        dmap = DistributedMap(batch_size=3)
        output = pull(values(list(range(20))), dmap, collect())
        handle = dmap.add_process_pool("repro.pool.workloads:square", processes=2)
        try:
            dmap.drive(output, timeout=60)
            assert output.result() == [value * value for value in range(20)]
        finally:
            dmap.close()
        assert handle.pool.values_dispatched == 20
        assert handle.pool.results_returned == 20
        # 20 values in frames of <= 3
        assert handle.pool.tasks_submitted == 7

    def test_node_style_function(self):
        dmap = DistributedMap(batch_size=2)
        output = pull(values([1, 2, 3, 4]), dmap, collect())
        dmap.add_process_pool(node_increment, processes=2)
        try:
            dmap.drive(output, timeout=60)
            assert output.result() == [2, 3, 4, 5]
        finally:
            dmap.close()

    def test_unbatched_frames(self):
        dmap = DistributedMap(batch_size=1)
        output = pull(values(list(range(6))), dmap, collect())
        handle = dmap.add_process_pool("repro.pool.workloads:echo", processes=1)
        try:
            dmap.drive(output, timeout=60)
            assert output.result() == list(range(6))
        finally:
            dmap.close()
        assert handle.pool.tasks_submitted == 6

    def test_task_failure_is_a_worker_crash(self):
        """A raising task closes the pool sub-stream; borrowed values are
        re-lent and a healthy worker completes the stream (the same
        containment as a crashing browser tab)."""
        dmap = DistributedMap(batch_size=2)
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
            assert output.result() == list(range(6))
        finally:
            dmap.close()

    def test_mixed_pool_and_local_workers(self):
        dmap = DistributedMap(batch_size=2)
        output = pull(values(list(range(24))), dmap, collect())
        dmap.add_process_pool("repro.pool.workloads:square", processes=2)
        dmap.add_local_worker(lambda v, cb: cb(None, v * v))
        try:
            dmap.drive(output, timeout=60)
            assert output.result() == [value * value for value in range(24)]
        finally:
            dmap.close()

    def test_stats_balance_after_pool_run(self):
        dmap = DistributedMap(batch_size=4)
        output = pull(values(list(range(17))), dmap, collect())
        dmap.add_process_pool("repro.pool.workloads:echo", processes=2)
        try:
            dmap.drive(output, timeout=60)
            output.result()
        finally:
            dmap.close()
        stats = dmap.stats
        assert stats.values_lent == (
            stats.results_delivered + dmap.lender.relendable + dmap.lender.outstanding
        )
        assert stats.results_delivered == 17

    def test_file_reference_backend(self, tmp_path):
        module = tmp_path / "double.py"
        module.write_text(
            "exports = {'/pando/1.0.0': lambda value, cb: cb(None, value * 2)}\n"
        )
        dmap = DistributedMap(batch_size=2)
        output = pull(values([1, 2, 3]), dmap, collect())
        dmap.add_process_pool(("file", str(module)), processes=1)
        try:
            dmap.drive(output, timeout=60)
            assert output.result() == [2, 4, 6]
        finally:
            dmap.close()

    def test_close_with_parked_result_ask_closes_substream(self):
        """Regression: close() while the pool source waits for input must
        answer the parked ask so the sub-stream closes and later values are
        lent to live workers instead of being stranded."""
        from repro.pullstream import pushable

        source = pushable()
        dmap = DistributedMap(batch_size=1)
        output = pull(source, dmap, collect())
        handle = dmap.add_process_pool("repro.pool.workloads:echo", processes=1)
        assert not handle.closed  # parked, waiting for the first input
        dmap.close()
        assert handle.closed
        source.push(1)
        dmap.add_local_worker(lambda v, cb: cb(None, v))
        source.end()
        assert output.result() == [1]
        assert dmap.lender.outstanding == 0

    def test_invalid_window_does_not_leak_the_pool(self):
        dmap = DistributedMap()
        pull(values([1]), dmap, collect())
        with pytest.raises(ValueError):
            dmap.add_process_pool(
                "repro.pool.workloads:echo", processes=1, window=0
            )
        assert dmap._pools == []
        assert dmap.workers == {}

    def test_attach_after_abort_raises_without_spawning(self):
        from repro.pullstream import count, take

        dmap = DistributedMap()
        output = pull(count(100), dmap, take(2), collect())
        dmap.add_local_worker(lambda v, cb: cb(None, v))
        assert output.done
        with pytest.raises(PandoError):
            dmap.add_process_pool("repro.pool.workloads:echo", processes=1)
        assert dmap._pools == []
