"""Pool-level tests for the shared-memory batch transport."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DistributedMap
from repro.errors import PandoError
from repro.pool import ProcessPoolWorker
from repro.pool.workloads import invert_tile, large_payload_inputs
from repro.pullstream import collect, pull, values

INVERT = "repro.pool.workloads:invert_tile"
ECHO = "repro.pool.workloads:echo"


def tiles(count, size=8192):
    return large_payload_inputs(count, size)


def assert_no_leak(ring):
    assert ring.slots_acquired == ring.slots_released
    assert ring.in_use == 0


class TestConstruction:
    def test_unknown_transport_rejected(self):
        with pytest.raises(PandoError):
            ProcessPoolWorker(ECHO, processes=1, transport="carrier-pigeon")

    def test_ring_knobs_require_shm_transport(self):
        with pytest.raises(PandoError):
            ProcessPoolWorker(ECHO, processes=1, slot_count=4)
        with pytest.raises(PandoError):
            ProcessPoolWorker(ECHO, processes=1, slot_size=1 << 16)
        with pytest.raises(PandoError):
            ProcessPoolWorker(ECHO, processes=1, shm_min_bytes=128)

    def test_pipe_transport_has_no_ring(self):
        with ProcessPoolWorker(ECHO, processes=1) as pool:
            assert pool.ring is None
            assert pool.transport == "pipe"

    def test_shm_transport_owns_a_ring(self):
        with ProcessPoolWorker(
            ECHO, processes=1, transport="shm", slot_count=4, slot_size=1 << 16
        ) as pool:
            assert pool.ring is not None
            assert pool.ring.slot_count == 4
        assert pool.ring.closed  # close() reaps the ring with the executor


class TestRoundTrip:
    def test_batched_bytes_round_trip(self):
        items = tiles(12)
        dmap = DistributedMap(batch_size=3)
        sink = pull(values(items), dmap, collect())
        handle = dmap.add_process_pool(INVERT, processes=2, transport="shm")
        try:
            dmap.drive(sink, timeout=60)
            assert sink.result() == [invert_tile(tile) for tile in items]
        finally:
            dmap.close()
        assert_no_leak(handle.pool.ring)
        assert handle.pool.ring.bytes_written > 0
        assert handle.pool.ring.bytes_read > 0

    def test_unbatched_ndarray_round_trip(self):
        arrays = [np.full((40, 50), index, dtype=np.int32) for index in range(6)]
        dmap = DistributedMap(batch_size=1)
        sink = pull(values(arrays), dmap, collect())
        handle = dmap.add_process_pool(ECHO, processes=1, transport="shm")
        try:
            dmap.drive(sink, timeout=60)
            results = sink.result()
        finally:
            dmap.close()
        for array, result in zip(arrays, results):
            assert result.dtype == array.dtype and result.shape == array.shape
            assert (result == array).all()
        assert_no_leak(handle.pool.ring)

    def test_asymmetric_frames_return_results_through_spares(self):
        """Tiny inline specs in, large pixel buffers out: the result path
        must use the frame's spare slots, not the pipe."""
        specs = [{"angle": 30.0 * index, "width": 48, "height": 36}
                 for index in range(6)]
        dmap = DistributedMap(batch_size=2)
        sink = pull(values(specs), dmap, collect())
        handle = dmap.add_process_pool(
            "repro.pool.workloads:render_frame_pixels",
            processes=2,
            transport="shm",
            shm_min_bytes=256,
        )
        try:
            dmap.drive(sink, timeout=60)
            results = sink.result()
        finally:
            dmap.close()
        assert len(results) == len(specs)
        ring = handle.pool.ring
        assert_no_leak(ring)
        assert ring.bytes_written == 0  # every input travelled in-band
        assert ring.bytes_read > 0  # every pixel buffer came back via slots

    def test_mixed_inline_and_shm_values_in_one_frame(self):
        items = [b"big" * 4096, 7, "small", b"also-big" * 4096]
        dmap = DistributedMap(batch_size=4)
        sink = pull(values(items), dmap, collect())
        handle = dmap.add_process_pool(ECHO, processes=1, transport="shm")
        try:
            dmap.drive(sink, timeout=60)
            assert sink.result() == items
        finally:
            dmap.close()
        assert_no_leak(handle.pool.ring)


class TestFallbacks:
    def test_oversized_payload_falls_back_to_pipe(self):
        big = bytes(200_000)
        small = b"x" * 4096
        dmap = DistributedMap(batch_size=1)
        sink = pull(values([big, small]), dmap, collect())
        handle = dmap.add_process_pool(
            ECHO, processes=1, transport="shm", slot_count=4, slot_size=1 << 16
        )
        try:
            dmap.drive(sink, timeout=60)
            assert sink.result() == [big, small]
        finally:
            dmap.close()
        assert handle.pool.ring.fallbacks >= 1
        assert_no_leak(handle.pool.ring)

    def test_exhausted_ring_falls_back_and_recovers(self):
        """More in-flight payloads than slots: the overflow rides the pipe
        and the run still completes exactly once, in order."""
        items = tiles(16, size=4096)
        dmap = DistributedMap(batch_size=4)
        sink = pull(values(items), dmap, collect())
        handle = dmap.add_process_pool(
            INVERT,
            processes=2,
            transport="shm",
            slot_count=2,
            slot_size=1 << 16,
        )
        try:
            dmap.drive(sink, timeout=60)
            assert sink.result() == [invert_tile(tile) for tile in items]
        finally:
            dmap.close()
        assert handle.pool.ring.fallbacks > 0
        assert_no_leak(handle.pool.ring)


class TestLeakProofLifecycle:
    def test_close_releases_slots_of_undelivered_frames(self):
        pool = ProcessPoolWorker(
            "repro.pool.workloads:sleep_blob",
            processes=1,
            transport="shm",
        )
        pool.sink(values(tiles(6)))
        assert pool.pending == 6
        held = pool.ring.in_use
        assert held > 0
        pool.close()
        assert_no_leak(pool.ring)
        assert pool.ring.closed

    def test_task_error_releases_the_frame_slots(self):
        """A raising task errors the result stream (crash-stop) and the
        failed frame's slots — plus every queued frame's — go back."""
        pool = ProcessPoolWorker(
            "tests.pool.test_shm_transport:explode", processes=1, transport="shm"
        )
        pool.sink(values(tiles(4)))
        assert pool.ring.slots_acquired >= 4
        answers = []
        pool.source(None, lambda end, value: answers.append(end))
        assert isinstance(answers[0], RuntimeError)
        assert pool.closed
        assert_no_leak(pool.ring)

    def test_nonblocking_drive_round_trip(self):
        items = tiles(10)
        dmap = DistributedMap(batch_size=2, shards=2)
        sink = pull(values(items), dmap, collect())
        handles = [
            dmap.add_process_pool(INVERT, processes=1, transport="shm")
            for _ in range(2)
        ]
        try:
            dmap.drive(sink, timeout=60)
            assert sink.result() == [invert_tile(tile) for tile in items]
        finally:
            dmap.close()
        for handle in handles:
            assert_no_leak(handle.pool.ring)


def explode(value):
    raise RuntimeError("boom on a shared-memory frame")
