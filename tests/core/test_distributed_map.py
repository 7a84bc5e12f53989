"""Tests for DistributedMap (the master-side composition).

The channel, late-attachment and inspection cases also run on an
``ordered=False`` map (the ``TestUnordered*`` subclasses at the bottom).
"""

from __future__ import annotations

import pytest

from repro.core import DistributedMap, StreamLender, UnorderedStreamLender
from repro.errors import PandoError
from repro.net.serialization import Batch
from repro.pullstream import (
    async_map,
    collect,
    count,
    duplex_pair,
    pull,
    take,
    values,
)


class MapCase:
    """Build maps with ``ordered``; ``same`` compares the output as a
    sequence on an ordered map and as a multiset otherwise."""

    ordered = True

    def same(self, results, expected):
        if self.ordered:
            assert results == expected
        else:
            assert sorted(results) == sorted(expected)


class TestLocalWorkers:
    def test_single_worker(self, square_fn):
        dmap = DistributedMap()
        output = pull(values([1, 2, 3]), dmap, collect())
        handle = dmap.add_local_worker(square_fn)
        assert output.result() == [1, 4, 9]
        assert handle.worker_id == "worker-1"

    def test_worker_ids_are_unique(self, square_fn):
        dmap = DistributedMap()
        pull(values([]), dmap, collect())
        first = dmap.add_local_worker(square_fn)
        second = dmap.add_local_worker(square_fn)
        assert first.worker_id != second.worker_id

    def test_explicit_worker_id(self, square_fn):
        dmap = DistributedMap()
        pull(values([1]), dmap, collect())
        handle = dmap.add_local_worker(square_fn, worker_id="my-laptop")
        assert "my-laptop" in dmap.workers

    def test_duplicate_worker_id_raises(self, square_fn):
        """Regression: an explicit duplicate id silently overwrote the
        existing WorkerHandle in ``workers``, orphaning its sub-stream from
        inspection and ``in_flight`` accounting.  Every attach path must
        reject it before any wiring happens."""
        dmap = DistributedMap()
        pull(values([1, 2]), dmap, collect())
        dmap.add_local_worker(square_fn, worker_id="dup")
        with pytest.raises(PandoError):
            dmap.add_local_worker(square_fn, worker_id="dup")
        with pytest.raises(PandoError):
            dmap.add_channel(duplex_pair()[0], worker_id="dup")
        with pytest.raises(PandoError):
            dmap.add_process_pool(
                "repro.pool.workloads:echo", processes=1, worker_id="dup"
            )
        assert list(dmap.workers) == ["dup"]
        assert dmap._pools == []  # the rejected pool was never spawned
        assert dmap.stats.substreams_opened == 1  # no phantom sub-streams

    def test_generated_id_skips_explicitly_taken_ids(self, square_fn):
        """The generated-id path must not collide with an id an explicit
        attach already took (the same silent-overwrite defect)."""
        dmap = DistributedMap()
        pull(values([]), dmap, collect())
        explicit = dmap.add_local_worker(square_fn, worker_id="worker-1")
        generated = dmap.add_local_worker(square_fn)
        assert generated.worker_id != "worker-1"
        assert dmap.workers["worker-1"] is explicit
        assert len(dmap.workers) == 2

    def test_failing_function_is_treated_as_a_worker_failure(self):
        """A worker whose function reports an error is closed like a crashed
        worker: its value is re-lent and the stream waits for another worker
        (the same containment Pando applies to crashing browser tabs)."""
        dmap = DistributedMap()
        output = pull(values([1, 2]), dmap, collect())
        failing = dmap.add_local_worker(lambda v, cb: cb(RuntimeError("bad"), None))
        assert failing.closed
        assert not output.done
        assert dmap.lender.relendable >= 1
        # a healthy worker finishes the job
        dmap.add_local_worker(lambda v, cb: cb(None, v))
        assert output.result() == [1, 2]
        assert dmap.stats.values_relent >= 1

    def test_many_synchronous_workers_never_stall_silently(self):
        """Regression: 120 synchronous workers attached before the source
        cascaded one stack level per worker (lender -> worker -> lender)
        into a ``RecursionError``, which ``async_map`` once also swallowed,
        leaving a pending sink.  The run must complete."""
        dmap = DistributedMap()
        for _ in range(120):
            dmap.add_local_worker(lambda v, cb: cb(None, v))
        output = pull(values(range(1000)), dmap, collect())
        assert output.result() == list(range(1000))

    @pytest.mark.parametrize("attached", ["before", "after"])
    @pytest.mark.parametrize(
        "config",
        [{}, {"ordered": False}],
        ids=["ordered", "unordered"],
    )
    @pytest.mark.parametrize("workers", [120, 1000])
    def test_synchronous_crowds_deliver_every_result(self, workers, config, attached):
        """Synchronous workers attached before the source are queued in the
        lender; connecting the source must serve them on one stack, not
        one nested read per worker."""
        dmap = DistributedMap(**config)

        def attach():
            for _ in range(workers):
                if dmap.closed:  # the first workers already finished the map
                    break
                dmap.add_local_worker(lambda v, cb: cb(None, v))

        if attached == "before":
            attach()
        output = pull(values(range(1000)), dmap, collect())
        if attached == "after":
            attach()
        results = output.result()
        if config.get("ordered", True):
            assert results == list(range(1000))
        else:
            assert sorted(results) == list(range(1000))

    def test_unordered_mode(self, square_fn):
        dmap = DistributedMap(ordered=False)
        output = pull(values([3, 1, 2]), dmap, collect())
        dmap.add_local_worker(square_fn)
        assert sorted(output.result()) == [1, 4, 9]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DistributedMap(batch_size=0)

    @pytest.mark.parametrize("ordered", [True, False])
    def test_shards_and_split_buffer_are_ignored(self, ordered):
        """Accepted for the ``perf/`` suite; every map is one lender."""
        dmap = DistributedMap(ordered=ordered, shards=4, split_buffer=16)
        expected = StreamLender if ordered else UnorderedStreamLender
        assert type(dmap.lender) is expected
        output = pull(values([3, 1, 2]), dmap, collect())
        dmap.add_local_worker(lambda value, cb: cb(None, value * value))
        assert sorted(output.result()) == [1, 4, 9]


class TestChannelWorkers(MapCase):
    def test_add_channel_with_loopback_worker(self):
        dmap = DistributedMap(batch_size=2, ordered=self.ordered)
        output = pull(values(list(range(10))), dmap, collect())
        local_end, remote_end = duplex_pair()
        # the remote side applies the function
        pull(remote_end.source, async_map(lambda v, cb: cb(None, v + 100)), remote_end.sink)
        handle = dmap.add_channel(local_end, worker_id="remote-1")
        self.same(output.result(), [value + 100 for value in range(10)])
        assert handle.limiter is not None
        assert handle.limiter.max_in_flight <= 2

    def test_mixed_channel_and_local_workers(self, square_fn):
        dmap = DistributedMap(batch_size=1, ordered=self.ordered)
        output = pull(values(list(range(8))), dmap, collect())
        local_end, remote_end = duplex_pair()
        pull(remote_end.source, async_map(lambda v, cb: cb(None, v * v)), remote_end.sink)
        dmap.add_channel(local_end)
        dmap.add_local_worker(square_fn)
        self.same(output.result(), [value * value for value in range(8)])

    @pytest.mark.parametrize("attached", ["before", "after"])
    def test_framed_channel_ships_full_frames(self, attached):
        """A framer asking again from its own answer's cascade is answered
        synchronously, so it fills its frame — also when its first ask was
        queued before the source was connected."""
        dmap = DistributedMap(ordered=self.ordered)
        frames = []

        def attach():
            local_end, remote_end = duplex_pair()

            def spy(read):
                def frames_seen(end, cb):
                    def answer(answer_end, value):
                        if isinstance(value, Batch):
                            frames.append(len(value.values))
                        cb(answer_end, value)

                    read(end, answer)

                return frames_seen

            # the far end answers one result frame per input frame
            echo_frame = async_map(lambda frame, cb: cb(None, Batch(frame.values)))
            pull(remote_end.source, spy, echo_frame, remote_end.sink)
            dmap.add_channel(local_end, frame_batch=4)

        if attached == "before":
            attach()
        output = pull(values(range(40)), dmap, collect())
        if attached == "after":
            attach()
        self.same(output.result(), list(range(40)))
        assert frames == [4] * 10

    def test_per_channel_batch_override(self):
        dmap = DistributedMap(batch_size=1, ordered=self.ordered)
        pull(count(4), dmap, collect())
        local_end, remote_end = duplex_pair()
        pull(remote_end.source, async_map(lambda v, cb: cb(None, v)), remote_end.sink)
        handle = dmap.add_channel(local_end, batch_size=5)
        assert handle.limiter.limit == 5


class TestLateAttachment(MapCase):
    """Attaching workers after the map's output finished must fail cleanly
    (regression: PandoError used to be raised from *inside* the lend_stream
    callback, after a Limiter had already been wired)."""

    def test_attach_after_output_drained_returns_closed_handle(self, square_fn):
        dmap = DistributedMap(ordered=self.ordered)
        output = pull(values([1, 2, 3]), dmap, collect())
        dmap.add_local_worker(square_fn)
        self.same(output.result(), [1, 4, 9])
        assert not dmap.closed  # drained normally, not aborted
        late = dmap.add_local_worker(square_fn, worker_id="latecomer")
        assert late.closed
        assert "latecomer" in dmap.workers
        self.same(output.result(), [1, 4, 9])  # output unchanged

    def test_attach_after_abort_raises_before_wiring(self, square_fn):
        from repro.errors import PandoError

        dmap = DistributedMap(ordered=self.ordered)
        output = pull(count(100), dmap, take(2), collect())
        dmap.add_local_worker(square_fn)
        assert output.done
        assert dmap.closed
        with pytest.raises(PandoError):
            dmap.add_local_worker(square_fn, worker_id="too-late")
        assert "too-late" not in dmap.workers

    def test_attach_channel_after_abort_raises(self):
        from repro.errors import PandoError

        dmap = DistributedMap(ordered=self.ordered)
        output = pull(count(100), dmap, take(1), collect())
        dmap.add_local_worker(lambda v, cb: cb(None, v))
        assert output.done
        local_end, _remote_end = duplex_pair()
        with pytest.raises(PandoError):
            dmap.add_channel(local_end, worker_id="too-late")
        assert "too-late" not in dmap.workers


class TestInspection(MapCase):
    def test_active_workers_and_stats(self, square_fn):
        dmap = DistributedMap(ordered=self.ordered)
        output = pull(values(list(range(5))), dmap, collect())
        dmap.add_local_worker(square_fn)
        output.result()
        assert dmap.stats.values_read == 5
        # after completion the sub-streams are closed gracefully
        assert dmap.workers
        assert all(handle.closed for handle in dmap.workers.values())
        assert dmap.active_workers == []

    def test_handle_in_flight(self, square_fn):
        dmap = DistributedMap(ordered=self.ordered)
        pull(values([1, 2, 3]), dmap, collect())
        handle = dmap.add_local_worker(square_fn)
        assert handle.in_flight == 0

    def test_lazy_with_take(self, square_fn):
        dmap = DistributedMap(ordered=self.ordered)
        output = pull(count(1000), dmap, take(3), collect())
        dmap.add_local_worker(square_fn)
        self.same(output.result(), [1, 4, 9])
        assert dmap.stats.values_read < 10


class TestUnorderedChannelWorkers(TestChannelWorkers):
    ordered = False


class TestUnorderedLateAttachment(TestLateAttachment):
    ordered = False


class TestUnorderedInspection(TestInspection):
    ordered = False
