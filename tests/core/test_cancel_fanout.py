"""Cancellation fan-out after a ``find`` hit (pool-only map).

When an unordered search aborts on its first hit, ``drive()`` must not let
the cores grind through nonce ranges whose results nobody can receive.  A
pool holds no frame its children do not, so the fan-out is the lender's
abort (the frames in flight are never delivered) plus the pool's cancel
flag and, once it owes nothing, its close.  The tests measure the quantity
the roadmap item named — submitted-but-undelivered frames after the hit.
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
        dmap.add_process_pool(SLEEPER, processes=2)
        dmap.drive(sink, timeout=60)
        pool = next(iter(dmap.workers.values())).pool
        return sink, pool, pool.tasks_submitted
    finally:
        dmap.close()


class TestDriveCancellationFastPath:
    def test_fast_path_leaves_submitted_tasks_uncomputed(self):
        sink, pool, submitted = run_search()
        assert sink.aborted and sink.result()["i"] == 1
        # The window kept the pool loaded ahead of the hit...
        assert submitted > 2
        # ... and the abort closed it with those frames in flight:
        # submitted > delivered.
        assert pool.results_returned < submitted
        assert pool.closed


class TestCancelPendingGuards:
    def test_cancel_pending_refuses_while_results_are_still_owed(self):
        """Cancelling mid-stream would desynchronise the frame/borrow
        pairing; without force the call must refuse."""
        with ProcessPoolWorker(SLEEPER, processes=1) as pool:
            sink_feed = values([{"sleep": 0.2, "i": 0}, {"sleep": 0.2, "i": 1}])
            pool.sink(sink_feed)
            assert pool.pending == 2
            assert pool.cancel_pending() == 0
            assert pool.pending == 2

    def test_forced_cancel_raises_the_flag_and_shuts_down_an_emptied_pool(self):
        with ProcessPoolWorker(SLEEPER, processes=1, cancel_chunk=1) as pool:
            pool.sink(values([{"sleep": 0.2, "i": index} for index in range(4)]))
            # Every frame is in the child: the raised flag reaches all four,
            # and the pool stays open until they are answered.
            assert pool.cancel_pending(force=True) == 4
            assert pool.cancel_flag.is_set()
            assert pool.pending == 4 and not pool.closed
        # With nothing in a child, nothing can ever be owed again.
        with ProcessPoolWorker(SLEEPER, processes=1) as idle:
            assert idle.cancel_pending(force=True) == 0
            assert idle.closed

    def test_close_drops_every_owed_frame(self):
        pool = ProcessPoolWorker(SLEEPER, processes=1)
        pool.sink(values([{"sleep": 0.2, "i": index} for index in range(6)]))
        assert pool.pending == 6
        pool.close()
        assert pool.pending == 0 and pool.closed


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
                transport="shm",
            )
            dmap.drive(sink, timeout=60)
            return sink, handle.pool
        finally:
            dmap.close()

    def test_abort_releases_every_cancelled_frames_slots(self):
        sink, pool = self.run_shm_search()
        assert sink.aborted and sink.result()[:4] == (1).to_bytes(4, "big")
        ring = pool.ring
        # With one payload slot per batch_size=1 frame, the release count
        # covers every delivered frame — released at push, not at close()...
        assert ring.slots_released >= pool.results_returned > 0
        # ... and the abort's teardown reaped the frames in flight.
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
            assert dmap.scheduler.cancellations == 0
            # Every slot was already back before close(): release-on-read.
            assert pool.ring.in_use == 0
            assert pool.ring.slots_acquired == pool.ring.slots_released
        finally:
            dmap.close()


@pytest.mark.parametrize("pools", [1, 2])
def test_unaborted_runs_cancel_nothing(pools):
    """The fast path must never fire on a clean drain."""
    dmap = DistributedMap(batch_size=1)
    inputs = [{"sleep": 0.001, "i": index} for index in range(8)]
    sink = pull(values(inputs), dmap, collect())
    try:
        for _ in range(pools):
            dmap.add_process_pool(SLEEPER, processes=1)
        dmap.drive(sink, timeout=60)
        assert sink.result() == inputs
        assert not sink.aborted
        assert dmap.scheduler.cancellations == 0
    finally:
        dmap.close()
