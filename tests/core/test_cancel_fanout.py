"""Cancellation fan-out after a ``find`` hit (pool-only map).

Regression suite for the satellite of the scheduler PR: when an unordered
search aborts on its first hit, ``drive()`` must drop every frame of each
attached pool that no child holds yet instead of letting the cores grind
through nonce ranges whose results nobody can receive.  The tests measure the quantity the roadmap item named —
submitted-but-uncomputed tasks after the hit.
"""

from __future__ import annotations

import pytest

from repro.core.distributed_map import DistributedMap
from repro.pool import ProcessPoolWorker
from repro.pullstream import collect, find, pull, values

SLEEPER = "repro.pool.workloads:sleep_echo"


def run_search():
    """One pool, nothing loop-hosted, find hit on the second value."""
    dmap = DistributedMap(batch_size=1)
    inputs = [{"sleep": 0.05, "i": index} for index in range(30)]
    sink = pull(values(inputs), dmap, find(lambda v: v["i"] == 1))
    try:
        dmap.add_process_pool(SLEEPER, processes=2, window=12)
        dmap.drive(sink, timeout=60)
        pool = next(iter(dmap.workers.values())).pool
        return sink, pool, pool.tasks_submitted, pool.tasks_cancelled
    finally:
        dmap.close()


class TestDriveCancellationFastPath:
    def test_fast_path_leaves_submitted_tasks_uncomputed(self):
        sink, pool, submitted, cancelled = run_search()
        assert sink.aborted and sink.result()["i"] == 1
        # The window kept the pool loaded ahead of the hit...
        assert submitted > 2
        # ... and the fan-out cancelled the queued frames the moment the
        # hit aborted the stream: submitted > computed.
        assert cancelled > 0
        assert pool.results_returned < submitted


class TestCancelPendingGuards:
    def test_cancel_pending_refuses_while_results_are_still_owed(self):
        """Cancelling mid-stream would desynchronise the frame/borrow
        pairing; without force the call must refuse."""
        with ProcessPoolWorker(SLEEPER, processes=1, blocking=False) as pool:
            sink_feed = values([{"sleep": 0.2, "i": 0}, {"sleep": 0.2, "i": 1}])
            pool.sink(sink_feed)
            assert pool.pending == 2
            assert pool.cancel_pending() == 0
            assert pool.pending == 2

    def test_forced_cancel_shuts_down_an_emptied_pool(self):
        with ProcessPoolWorker(SLEEPER, processes=1, blocking=False) as pool:
            # Short sleeps: the child finishes the frame it is running
            # before it notices the closed pipe.
            pool.sink(values([{"sleep": 0.2, "i": index} for index in range(4)]))
            assert pool.head_started
            # The one child holds two frames (running + prefetched); the
            # other two never left the master.
            assert pool.cancel_pending(force=True) == 2
            assert pool.tasks_cancelled == 2
            assert pool.pending == 2 and not pool.closed
        # With nothing in a child either, nothing can ever be owed again.
        with ProcessPoolWorker(SLEEPER, processes=1, blocking=False) as idle:
            assert idle.cancel_pending(force=True) == 0
            assert idle.closed

    def test_close_cancels_queued_frames_before_shutdown(self):
        pool = ProcessPoolWorker(SLEEPER, processes=1)
        pool.sink(values([{"sleep": 0.2, "i": index} for index in range(6)]))
        assert pool.pending == 6
        pool.close()
        # The child held two frames (running + prefetched); everything
        # queued behind those was cancelled rather than computed.
        assert pool.tasks_cancelled == 4
        assert pool.closed


class TestShmSlotReleaseOnAbort:
    """Cancellation fan-out on the shared-memory transport: aborting a
    find-style run must hand back every ring slot held by frames that were
    submitted but never ran (extends the fan-out coverage above to the
    transport's slot-ownership protocol)."""

    def run_shm_search(self):
        """One shm pool, nothing loop-hosted, hit on the second tile."""
        dmap = DistributedMap(batch_size=1)
        inputs = [index.to_bytes(4, "big") + bytes(8192) for index in range(30)]
        hit = (1).to_bytes(4, "big")
        sink = pull(values(inputs), dmap, find(lambda v: v[:4] == hit))
        try:
            handle = dmap.add_process_pool(
                "repro.pool.workloads:sleep_blob",
                processes=2,
                window=12,
                transport="shm",
            )
            dmap.drive(sink, timeout=60)
            return sink, handle.pool
        finally:
            dmap.close()

    def test_abort_releases_every_cancelled_frames_slots(self):
        sink, pool = self.run_shm_search()
        assert sink.aborted and sink.result()[:4] == (1).to_bytes(4, "big")
        # The window kept the ring loaded ahead of the hit, and the fan-out
        # cancelled the queued frames...
        assert pool.tasks_cancelled > 0
        ring = pool.ring
        # ... whose slots all came back: with one payload slot per
        # batch_size=1 frame, the release count covers every delivered AND
        # every cancelled frame — nothing waits for close().
        assert ring.slots_released >= pool.results_returned + pool.tasks_cancelled
        # close() (in run_shm_search's finally) reaped the remainder.
        assert ring.slots_acquired == ring.slots_released
        assert ring.in_use == 0

    def test_clean_shm_drain_releases_slots_without_cancelling(self):
        dmap = DistributedMap(batch_size=1)
        inputs = [index.to_bytes(4, "big") + bytes(8192) for index in range(6)]
        sink = pull(values(inputs), dmap, collect())
        try:
            handle = dmap.add_process_pool(
                "repro.pool.workloads:sleep_blob",
                processes=2,
                transport="shm",
            )
            dmap.drive(sink, timeout=60)
            assert sink.result() == inputs
            pool = handle.pool
            assert pool.tasks_cancelled == 0
            # Every slot was already back before close(): release-on-read.
            assert pool.ring.in_use == 0
            assert pool.ring.slots_acquired == pool.ring.slots_released
        finally:
            dmap.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_unaborted_runs_cancel_nothing(shards):
    """The fast path must never fire on a clean drain."""
    dmap = DistributedMap(batch_size=1, shards=shards)
    inputs = [{"sleep": 0.001, "i": index} for index in range(8)]
    sink = pull(values(inputs), dmap, collect())
    try:
        for _ in range(shards):
            dmap.add_process_pool(SLEEPER, processes=1)
        dmap.drive(sink, timeout=60)
        assert sink.result() == inputs
        assert not sink.aborted
        for handle in dmap.workers.values():
            assert handle.pool.tasks_cancelled == 0
    finally:
        dmap.close()
