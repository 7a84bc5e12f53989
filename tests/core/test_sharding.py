"""Tests for the sharded multi-master lender and the shards mode of
DistributedMap."""

from __future__ import annotations

import pytest

from repro.core import DistributedMap, ShardedLender
from repro.errors import PandoError
from repro.pullstream import collect, pull, values


def lend(lender, **kwargs):
    box = []
    lender.lend_stream(lambda err, sub: box.append((err, sub)), **kwargs)
    err, sub = box[0]
    assert err is None
    return sub


class TestShardedLender:
    def test_global_order_across_shards(self, substream_driver):
        sharded = ShardedLender(shards=3)
        inputs = list(range(30))
        output = pull(values(inputs), sharded, collect())
        for shard in range(3):
            substream_driver(lend(sharded, shard=shard)).start()
        assert output.result() == [value * 10 for value in inputs]

    def test_each_shard_has_its_own_stats(self, substream_driver):
        sharded = ShardedLender(shards=2)
        inputs = list(range(10))
        output = pull(values(inputs), sharded, collect())
        substream_driver(lend(sharded, shard=0)).start()
        substream_driver(lend(sharded, shard=1)).start()
        assert output.result() == [value * 10 for value in inputs]
        per_shard = sharded.shard_stats
        assert [stats.values_read for stats in per_shard] == [5, 5]
        assert [stats.results_delivered for stats in per_shard] == [5, 5]
        aggregate = sharded.stats
        assert aggregate.values_read == 10
        assert aggregate.results_delivered == 10
        assert sum(aggregate.lent_per_substream.values()) == aggregate.values_lent

    def test_least_loaded_placement_spreads_workers(self):
        sharded = ShardedLender(shards=3)
        pull(values(list(range(9))), sharded, collect())
        subs = [lend(sharded) for _ in range(6)]
        assert [sub.shard for sub in subs] == [0, 1, 2, 0, 1, 2]

    def test_crash_stop_rebalances_placement(self, substream_driver):
        sharded = ShardedLender(shards=2)
        pull(values(list(range(100))), sharded, collect())
        first = lend(sharded)   # shard 0
        second = lend(sharded)  # shard 1
        assert (first.shard, second.shard) == (0, 1)
        # Crash the shard-0 worker: the next two attachments go to shard 0
        # first (it has fewer open sub-streams), then shard 1.
        driver = substream_driver(first, crash_after=2, auto_deliver=False).start()
        driver.crash()
        assert lend(sharded).shard == 0
        assert lend(sharded).shard == 1

    def test_backpressure_tie_break_prefers_deepest_branch_buffer(
        self, substream_driver
    ):
        """With ``max_buffer`` set, an equally-loaded tie goes to the shard
        whose split-branch buffer is deepest: that shard's stall is what is
        parking the shared input pump, so that is where an extra worker
        unblocks the whole pipeline."""
        sharded = ShardedLender(shards=2, max_buffer=2)
        pull(values(list(range(12))), sharded, collect())
        # Shard 0: a hungry worker that drains its slice, forcing shard 1's
        # branch buffer up to the cap (which parks the pump).  Shard 1: an
        # idle worker that never asks.
        substream_driver(lend(sharded, shard=0)).start()
        lend(sharded, shard=1)
        assert sharded._branches.buffer_depths == [0, 2]
        # Open sub-streams tie 1-1; the deeper branch buffer must win.
        assert sharded.least_loaded_shard() == 1
        assert lend(sharded).shard == 1

    def test_tie_break_without_buffer_cap_keeps_index_order(
        self, substream_driver
    ):
        """Unbounded splitter: buffer depths are not consulted (the pump is
        never parked by a backlog), so the equal-load tie falls back to the
        lowest index as before.  Shard 0's worker borrows its whole slice
        but holds the results, so shard 0 still has work."""
        sharded = ShardedLender(shards=2)
        pull(values(list(range(12))), sharded, collect())
        substream_driver(
            lend(sharded, shard=0), auto_deliver=False, max_in_flight=6
        ).start()
        lend(sharded, shard=1)
        assert sharded._branches.buffer_depths[1] > 0
        assert sharded.least_loaded_shard() == 0
        assert lend(sharded).shard == 0

    def test_a_finished_shard_loses_the_tie_to_a_depleted_one(
        self, substream_driver
    ):
        """Shard 0's worker finished its slice while shard 1's only worker
        crashed with values borrowed: both count no open sub-stream and one
        ever opened, and the replacement must go where the work is."""
        sharded = ShardedLender(shards=2)
        output = pull(values(list(range(12))), sharded, collect())
        substream_driver(lend(sharded, shard=0)).start()
        substream_driver(lend(sharded, shard=1), crash_after=2).start()
        assert sharded.shards[0].work_done and not sharded.shards[1].work_done
        assert [lender.open_substreams for lender in sharded.shards] == [0, 0]
        assert sharded.least_loaded_shard() == 1
        substream_driver(lend(sharded)).start()
        assert sorted(output.result()) == [value * 10 for value in range(12)]

    def test_worker_crash_is_contained_to_its_shard(self, substream_driver):
        sharded = ShardedLender(shards=2)
        inputs = list(range(20))
        output = pull(values(inputs), sharded, collect())
        crasher = substream_driver(
            lend(sharded, shard=0), crash_after=3, auto_deliver=False
        ).start()
        healthy = [
            substream_driver(lend(sharded, shard=shard), auto_deliver=False)
            .start()
            for shard in (0, 1)
        ]
        crasher.crash()
        for _ in range(10 * len(inputs)):
            if output.done:
                break
            for driver in healthy:
                driver.deliver_all()
        assert output.done
        assert output.result() == [value * 10 for value in inputs]
        stats = sharded.shard_stats
        assert stats[0].substreams_failed == 1
        assert stats[1].substreams_failed == 0
        assert stats[0].values_relent >= 1
        assert sharded.outstanding == 0
        assert sharded.relendable == 0

    def test_dead_shard_cannot_wedge_a_completed_stream(self, substream_driver):
        """Once every read value is delivered, the merged output terminates
        even though one shard's only worker crashed and can never answer the
        joiner's final ask (the total() short-circuit)."""
        sharded = ShardedLender(shards=2)
        inputs = [0, 1, 2]
        output = pull(values(inputs), sharded, collect())
        # Shard 1's worker holds its results back until the end, then
        # crashes right after delivering — mirroring a worker that dies
        # between its last answer and the stream end.
        slow = substream_driver(
            lend(sharded, shard=1), auto_deliver=False, max_in_flight=1
        ).start()
        fast = substream_driver(lend(sharded, shard=0)).start()
        assert not output.done
        slow.deliver_all()
        slow.crash()
        assert output.done
        assert output.result() == [0, 10, 20]

    def test_unordered_delivers_in_completion_order(self, substream_driver):
        """A fast shard's results are not held back behind a slow sibling:
        the first deliveries all come from shard 1 while shard 0 stalls."""
        from repro.pullstream import tap

        sharded = ShardedLender(shards=2, ordered=False)
        inputs = list(range(10))
        delivered = []
        output = pull(values(inputs), sharded, tap(delivered.append), collect())
        slow = substream_driver(
            lend(sharded, shard=0), auto_deliver=False, max_in_flight=1
        ).start()
        fast = substream_driver(lend(sharded, shard=1)).start()
        # Shard 1 (odd inputs) has delivered everything it can; shard 0
        # holds its first result back.  In ordered mode nothing would have
        # reached the sink yet (global value 0 belongs to shard 0).
        assert not output.done
        assert delivered == [value * 10 for value in (1, 3, 5, 7, 9)]
        slow.deliver_all()
        while not output.done:
            slow.deliver_all()
        assert sorted(output.result()) == [value * 10 for value in inputs]

    def test_unordered_dead_shard_cannot_wedge_a_completed_stream(
        self, substream_driver
    ):
        """Unordered mode keeps the total() short-circuit: once every read
        value has been delivered, the merge terminates without waiting on a
        shard whose only worker crashed."""
        sharded = ShardedLender(shards=2, ordered=False)
        output = pull(values([0, 1, 2]), sharded, collect())
        slow = substream_driver(
            lend(sharded, shard=1), auto_deliver=False, max_in_flight=1
        ).start()
        substream_driver(lend(sharded, shard=0)).start()
        assert not output.done
        slow.deliver_all()
        slow.crash()
        assert output.done
        assert sorted(output.result()) == [0, 10, 20]

    def test_unordered_worker_crash_relends_within_its_shard(
        self, substream_driver
    ):
        sharded = ShardedLender(shards=2, ordered=False)
        inputs = list(range(20))
        output = pull(values(inputs), sharded, collect())
        crasher = substream_driver(
            lend(sharded, shard=0), crash_after=3, auto_deliver=False
        ).start()
        healthy = [
            substream_driver(lend(sharded, shard=shard), auto_deliver=False)
            .start()
            for shard in (0, 1)
        ]
        crasher.crash()
        for _ in range(10 * len(inputs)):
            if output.done:
                break
            for driver in healthy:
                driver.deliver_all()
        assert output.done
        assert sorted(output.result()) == [value * 10 for value in inputs]
        stats = sharded.shard_stats
        assert stats[0].substreams_failed == 1
        assert stats[1].substreams_failed == 0
        assert stats[0].values_relent >= 1
        assert sharded.outstanding == 0
        assert sharded.relendable == 0

    def test_input_error_propagates_like_a_single_lender(self, substream_driver):
        """Regression: when the input errors after its last value, the merged
        output must report the error (as one StreamLender does), not present
        the values delivered so far as a successful completion."""
        boom = RuntimeError("input failed")
        served = iter(range(4))

        def erroring(end, cb):
            if end is not None:
                cb(end, None)
                return
            try:
                cb(None, next(served))
            except StopIteration:
                cb(boom, None)

        sharded = ShardedLender(shards=2)
        output = pull(erroring, sharded, collect())
        substream_driver(lend(sharded, shard=0)).start()
        substream_driver(lend(sharded, shard=1)).start()
        assert output.done
        assert output.end is boom
        with pytest.raises(RuntimeError):
            output.result()

    def test_unconnected_shard_validation(self):
        with pytest.raises(ValueError):
            ShardedLender(shards=0)
        sharded = ShardedLender(shards=2)
        pull(values([1]), sharded, collect())
        with pytest.raises(ValueError):
            lend(sharded, shard=5)

    def test_double_connect_raises(self):
        sharded = ShardedLender(shards=2)
        sharded(values([1]))
        with pytest.raises(Exception):
            sharded(values([2]))

    def test_downstream_abort_ends_every_shard(self, substream_driver):
        from repro.pullstream import count, take

        sharded = ShardedLender(shards=2)
        output = pull(count(100), sharded, take(4), collect())
        substream_driver(lend(sharded, shard=0), fn=lambda v: v).start()
        substream_driver(lend(sharded, shard=1), fn=lambda v: v).start()
        assert output.done
        assert output.result() == [1, 2, 3, 4]
        assert sharded.ended
        # Lending after the abort reports the termination instead of a sub.
        late = []
        sharded.lend_stream(lambda err, sub: late.append((err, sub)))
        assert late[0][1] is None
        assert late[0][0] is not None


class TestDistributedMapSharded:
    def test_local_workers_spread_and_preserve_order(self):
        dmap = DistributedMap(shards=2, batch_size=2)
        sink = pull(values(list(range(20))), dmap, collect())
        handles = [
            dmap.add_local_worker(lambda v, cb: cb(None, v * v)) for _ in range(2)
        ]
        assert [handle.shard for handle in handles] == [0, 1]
        assert sink.result() == [v * v for v in range(20)]
        assert [s.results_delivered for s in dmap.lender.shard_stats] == [10, 10]

    def test_pools_are_read_by_the_scheduler_and_drive_completes(self):
        dmap = DistributedMap(shards=2, batch_size=2)
        sink = pull(values(list(range(12))), dmap, collect())
        try:
            first = dmap.add_process_pool("repro.pool.workloads:square", processes=1)
            second = dmap.add_process_pool("repro.pool.workloads:square", processes=1)
            assert first.pool.scheduler is second.pool.scheduler is dmap.scheduler
            assert (first.shard, second.shard) == (0, 1)
            dmap.drive(sink, timeout=60)
            assert sink.result() == [v * v for v in range(12)]
        finally:
            dmap.close()

    def test_drive_timeout_fires_even_while_progressing(self):
        """Regression: the drive deadline was only checked on no-progress
        iterations, so a steadily progressing run could overshoot an
        arbitrary timeout."""
        dmap = DistributedMap(shards=2, batch_size=1)
        sink = pull(
            values([{"sleep": 0.05, "index": i} for i in range(40)]),
            dmap,
            collect(),
        )
        try:
            for _ in range(2):
                dmap.add_process_pool(
                    "repro.pool.workloads:sleep_echo", processes=1, batch_size=1
                )
            with pytest.raises(PandoError, match="timed out"):
                dmap.drive(sink, timeout=0.15)
        finally:
            dmap.close()

    def test_unordered_sharded_map_local_workers(self):
        dmap = DistributedMap(ordered=False, shards=2)
        assert not dmap.lender.ordered
        sink = pull(values(list(range(20))), dmap, collect())
        handles = [
            dmap.add_local_worker(lambda v, cb: cb(None, v * v)) for _ in range(2)
        ]
        assert [handle.shard for handle in handles] == [0, 1]
        assert sorted(sink.result()) == [v * v for v in range(20)]
        assert dmap.stats.results_delivered == 20

    def test_unordered_sharded_pools_drive_completes(self):
        dmap = DistributedMap(ordered=False, shards=2, batch_size=2)
        sink = pull(values(list(range(12))), dmap, collect())
        try:
            for _ in range(2):
                dmap.add_process_pool("repro.pool.workloads:square", processes=1)
            dmap.drive(sink, timeout=60)
            assert sorted(sink.result()) == [v * v for v in range(12)]
        finally:
            dmap.close()

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError):
            DistributedMap(shards=0)

    def test_split_buffer_requires_shards(self):
        with pytest.raises(ValueError):
            DistributedMap(split_buffer=4)
        with pytest.raises(ValueError):
            DistributedMap(shards=2, split_buffer=0)

    def test_split_buffer_threads_through_to_the_splitter(self):
        dmap = DistributedMap(shards=2, split_buffer=3)
        assert dmap.lender.max_buffer == 3
        sink = pull(values(list(range(10))), dmap, collect())
        for _ in range(2):
            dmap.add_local_worker(lambda v, cb: cb(None, v))
        assert sink.result() == list(range(10))
        assert dmap.lender._branches.max_buffer == 3

    def test_drive_stall_is_diagnosed(self):
        """A shard with no worker cannot progress; drive() raises instead of
        spinning forever."""
        dmap = DistributedMap(shards=2)
        sink = pull(values([1, 2, 3, 4]), dmap, collect())
        dmap.add_local_worker(lambda v, cb: cb(None, v))  # serves shard 0 only
        assert not sink.done
        with pytest.raises(PandoError, match="stalled"):
            dmap.drive(sink, timeout=1)
        assert dmap.scheduler.stalls == 1
        dmap.close()

    def test_pool_crash_values_relent_within_shard(self):
        """A pool task failure on one shard re-lends the borrowed values to a
        replacement worker on the same shard; the other shard is untouched."""
        dmap = DistributedMap(shards=2, batch_size=2)
        sink = pull(values(list(range(8))), dmap, collect())
        try:
            bad = dmap.add_process_pool(
                "tests.core.test_sharding:always_fail", processes=1
            )
            good = dmap.add_process_pool("repro.pool.workloads:echo", processes=1)
            with pytest.raises(PandoError):
                dmap.drive(sink, timeout=30)  # shard 0 lost its only worker
            assert bad.closed
            assert dmap.lender.shards[bad.shard].relendable >= 1
            # A replacement local worker on the crashed shard completes it.
            dmap.add_local_worker(lambda v, cb: cb(None, v))
            dmap.drive(sink, timeout=30)
            assert sink.result() == list(range(8))
        finally:
            dmap.close()

    def test_sharded_stats_property_aggregates(self):
        dmap = DistributedMap(shards=2)
        sink = pull(values(list(range(6))), dmap, collect())
        for _ in range(2):
            dmap.add_local_worker(lambda v, cb: cb(None, v))
        sink.result()
        assert dmap.stats.results_delivered == 6
        assert dmap.stats.values_read == 6


def always_fail(value):
    raise RuntimeError(f"no can do: {value!r}")
