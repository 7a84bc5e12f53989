"""Pool-level tests for the shared-memory batch transport.

The map-level round trips and fallbacks also run on an ``ordered=False``
map (the ``TestUnordered*`` subclasses): the slots a frame holds do not
depend on the order its results go down the stream.
"""

from __future__ import annotations

import json
import os
from collections import Counter
import platform
import subprocess
import sys

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


class MapCase:
    """Build maps with ``ordered``; ``same`` compares the output as a
    sequence on an ordered map and as a multiset otherwise."""

    ordered = True

    def same(self, results, expected):
        if self.ordered:
            assert results == expected
        else:
            assert Counter(results) == Counter(expected)


class TestRoundTrip(MapCase):
    def test_batched_bytes_round_trip(self):
        items = tiles(12)
        dmap = DistributedMap(batch_size=3, ordered=self.ordered)
        sink = pull(values(items), dmap, collect())
        handle = dmap.add_process_pool(INVERT, processes=2, transport="shm")
        try:
            dmap.drive(sink, timeout=60)
            self.same(sink.result(), [invert_tile(tile) for tile in items])
        finally:
            dmap.close()
        assert_no_leak(handle.pool.ring)
        assert handle.pool.ring.bytes_written > 0
        assert handle.pool.ring.bytes_read > 0

    def test_unbatched_ndarray_round_trip(self):
        arrays = [np.full((40, 50), index, dtype=np.int32) for index in range(6)]
        dmap = DistributedMap(batch_size=1, ordered=self.ordered)
        sink = pull(values(arrays), dmap, collect())
        handle = dmap.add_process_pool(ECHO, processes=1, transport="shm")
        try:
            dmap.drive(sink, timeout=60)
            results = sink.result()
        finally:
            dmap.close()
        if not self.ordered:
            results.sort(key=lambda result: int(result.flat[0]))
        for array, result in zip(arrays, results):
            assert result.dtype == array.dtype and result.shape == array.shape
            assert (result == array).all()
        assert_no_leak(handle.pool.ring)

    def test_asymmetric_frames_return_results_through_spares(self):
        """Tiny inline specs in, large pixel buffers out: the result path
        must use the frame's spare slots, not the pipe."""
        specs = [{"angle": 30.0 * index, "width": 48, "height": 36}
                 for index in range(6)]
        dmap = DistributedMap(batch_size=2, ordered=self.ordered)
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
        dmap = DistributedMap(batch_size=4, ordered=self.ordered)
        sink = pull(values(items), dmap, collect())
        handle = dmap.add_process_pool(ECHO, processes=1, transport="shm")
        try:
            dmap.drive(sink, timeout=60)
            self.same(sink.result(), items)
        finally:
            dmap.close()
        assert_no_leak(handle.pool.ring)


class TestFallbacks(MapCase):
    def test_oversized_payload_falls_back_to_pipe(self):
        big = bytes(200_000)
        small = b"x" * 4096
        dmap = DistributedMap(batch_size=1, ordered=self.ordered)
        sink = pull(values([big, small]), dmap, collect())
        handle = dmap.add_process_pool(
            ECHO, processes=1, transport="shm", slot_count=4, slot_size=1 << 16
        )
        try:
            dmap.drive(sink, timeout=60)
            self.same(sink.result(), [big, small])
        finally:
            dmap.close()
        assert handle.pool.ring.fallbacks >= 1
        assert_no_leak(handle.pool.ring)

    def test_exhausted_ring_falls_back_and_recovers(self):
        """More in-flight payloads than slots: the overflow rides the pipe
        and the run still completes exactly once, in order."""
        items = tiles(16, size=4096)
        dmap = DistributedMap(batch_size=4, ordered=self.ordered)
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
            self.same(sink.result(), [invert_tile(tile) for tile in items])
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
        dmap = DistributedMap(batch_size=2)
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



class TestUnorderedRoundTrip(TestRoundTrip):
    ordered = False


class TestUnorderedFallbacks(TestFallbacks):
    ordered = False


#: Drives ``argv[1]`` distinct 1 MiB tiles through a one-process shm pool
#: on a ring of ``argv[2]`` slots and reports what the kernel was asked for.
#: A fresh interpreter, because the allocator setting under test is
#: process-global; a generator and a discarding sink, because 400 MiB kept
#: would fault for every page of it.
_FAULT_SCRIPT = """
import json, multiprocessing, resource, sys, time

from repro.core import DistributedMap
from repro.pullstream import drain, from_iterable, pull

count, slot_count, size = int(sys.argv[1]), int(sys.argv[2]), 1 << 20
filler = bytes(size - 8)
inverted = bytes([255]) * (size - 8)
in_order = []


def check(result):
    head = bytes(255 - byte for byte in len(in_order).to_bytes(8, "big"))
    in_order.append(result[:8] == head and result[8:] == inverted)


def faults():
    return sum(
        resource.getrusage(who).ru_minflt
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def peak_resident_mib():
    # VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so it would
    # report the test runner that started this interpreter if that was larger.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024


before = faults()
dmap = DistributedMap(batch_size=4)
tiles = (index.to_bytes(8, "big") + filler for index in range(count))
sink = pull(from_iterable(tiles), dmap, drain(check))
handle = dmap.add_process_pool(
    "repro.pool.workloads:invert_tile",
    processes=1, transport="shm", slot_count=slot_count, batch_size=4,
)
dmap.drive(sink, timeout=120)
dmap.close()
deadline = time.monotonic() + 20
while multiprocessing.active_children() and time.monotonic() < deadline:
    time.sleep(0.01)  # RUSAGE_CHILDREN counts a child once it is reaped
print(json.dumps({
    "faults_per_value": (faults() - before) / count,
    "master_hwm_mib": peak_resident_mib(),
    "peak_in_use": handle.pool.ring.peak_in_use,
    "results": len(in_order),
    "in_order": all(in_order),
    "leaked_slots": handle.pool.ring.slots_acquired - handle.pool.ring.slots_released,
    "ctypes_loaded": "ctypes" in sys.modules,
}))
"""


def run_fault_script(count, slot_count=8, **extra_env):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **extra_env)
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        if name not in extra_env:
            env.pop(name, None)
    done = subprocess.run(
        [sys.executable, "-c", _FAULT_SCRIPT, str(count), str(slot_count)],
        env=env, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the payload heap is a glibc mallopt"
)
class TestPayloadHeap:
    def test_megabyte_tiles_are_not_faulted_in_again_per_value(self):
        """Master and child copy every tile out of the ring and build its
        result: with the freed blocks kept, the kernel hands out pages for
        the ring's first touch and the fork, not ~270 times per value."""
        report = run_fault_script(400)
        assert report["results"] == 400 and report["in_order"]
        assert report["leaked_slots"] == 0
        assert report["faults_per_value"] < 60, report
        assert report["ctypes_loaded"]

    def test_a_large_ring_is_resident_only_as_far_as_the_window_reaches(self):
        """Eight tiles in flight through 64 slots of 1 MiB: the ring reissues
        the slots it released last, so the master and the child touch the
        window's slots, not all 64 MiB of the block (with a FIFO free list
        the master peaked at ~105 MiB resident, at ~65 faults per value)."""
        report = run_fault_script(400, slot_count=64)
        assert report["results"] == 400 and report["in_order"]
        assert report["leaked_slots"] == 0
        # a one-child window is two frames of four tiles
        assert report["peak_in_use"] <= 8, report
        assert report["master_hwm_mib"] < 75, report
        assert report["faults_per_value"] < 45, report

    def test_the_operators_own_malloc_setting_is_left_alone(self):
        report = run_fault_script(8, MALLOC_TRIM_THRESHOLD_=str(128 << 10))
        assert report["results"] == 8 and report["in_order"]
        # mallopt is reached through ctypes, and only through it
        assert not report["ctypes_loaded"]


class TestPayloadHeapOrder:
    """The rule itself, against a fake ``mallopt`` (any libc)."""

    @staticmethod
    def fake_libc(monkeypatch, returns):
        import ctypes

        from repro.net import serialization

        calls = []

        class Libc:
            @staticmethod
            def mallopt(parameter, value):
                calls.append((parameter, value))
                return returns.pop(0)

        monkeypatch.setattr(ctypes, "CDLL", lambda _name: Libc)
        monkeypatch.setattr(serialization, "_heap_kept", False)
        monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
        monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_", raising=False)
        return serialization, calls

    def test_mmap_threshold_first_then_trim_then_nothing_ever_again(self, monkeypatch):
        serialization, calls = self.fake_libc(monkeypatch, [1, 1])
        serialization.keep_payload_heap()
        serialization.keep_payload_heap()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_a_refused_mmap_threshold_leaves_the_trim_threshold_dynamic(self, monkeypatch):
        # Trim alone freezes the mmap threshold at its 128 KiB default:
        # every MiB block would then be an mmap/munmap pair.
        serialization, calls = self.fake_libc(monkeypatch, [0])
        serialization.keep_payload_heap()
        assert calls == [(-3, 32 << 20)]

    @pytest.mark.parametrize("name", ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"])
    def test_either_glibc_variable_switches_it_off(self, monkeypatch, name):
        serialization, calls = self.fake_libc(monkeypatch, [])
        monkeypatch.setenv(name, "131072")
        serialization.keep_payload_heap()
        assert calls == []

    def test_an_allocator_without_mallopt_is_a_silent_no_op(self, monkeypatch):
        import ctypes

        serialization, _calls = self.fake_libc(monkeypatch, [])
        monkeypatch.setattr(ctypes, "CDLL", lambda _name: object())
        serialization.keep_payload_heap()  # AttributeError swallowed


def explode(value):
    raise RuntimeError("boom on a shared-memory frame")
