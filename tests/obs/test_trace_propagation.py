"""Frame-trace propagation across the pipe, shm, and websocket transports.

Every transport ships the trace dict in its frame control metadata; the
child side adds ``exec_s``; delivery lands one ``"frame"`` trace event and
one overhead/compute histogram sample.  These tests pin that contract per
transport, including the shm in-band (fallback-to-inline) path, and check
that turning metrics off restores the untraced frame shape.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import DistributedMap
from repro.pool.workloads import invert_tile, large_payload_inputs
from repro.pullstream import collect, from_iterable, pull, values
from repro.worker import run_volunteer

INVERT = "repro.pool.workloads:invert_tile"


def start_volunteer_thread(url, **kwargs):
    """Run one volunteer session in a thread; returns (thread, result box)."""
    box = {}

    def target():
        box["report"] = run_volunteer(url, **kwargs)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def tiles(count, size=8192):
    return large_payload_inputs(count, size)


def assert_traced_frames(dmap, transport, total_values):
    """The common per-transport contract for completed frame traces."""
    events = dmap.obs.trace.events("frame")
    assert events, f"no frame events recorded for {transport}"
    fields = [event.fields for event in events]
    assert {f["transport"] for f in fields} == {transport}
    # Every frame carries the parent job ID and a distinct monotonic id.
    assert {f["job"] for f in fields} == {dmap.obs.job_id}
    frame_ids = [f["frame_id"] for f in fields]
    assert len(set(frame_ids)) == len(frame_ids)
    assert frame_ids == sorted(frame_ids)
    # Batches account for every input value exactly once.
    assert sum(f["values"] for f in fields) == total_values
    for f in fields:
        assert f["serialize_s"] is not None and f["serialize_s"] >= 0.0
        assert f["compute_s"] >= 0.0
        assert f["overhead_s"] >= 0.0
    # The histograms saw the same frames the trace log did.
    count = len(events)
    assert dmap.obs.frames.value(transport=transport) == count
    assert dmap.obs.frame_overhead.count(transport=transport) == count
    assert dmap.obs.frame_compute.count(transport=transport) == count


class TestPoolTransports:
    @pytest.mark.parametrize(
        "pool_kwargs",
        [
            pytest.param({"transport": "pipe"}, id="pipe"),
            pytest.param({"transport": "shm"}, id="shm"),
            pytest.param(
                # Slots too small for an 8 KiB tile: every payload falls back
                # to the in-band (inline) path, but frames stay traced.
                {"transport": "shm", "slot_size": 1024, "shm_min_bytes": 256},
                id="shm-fallback",
            ),
        ],
    )
    def test_frames_traced_end_to_end(self, pool_kwargs):
        items = tiles(12)
        dmap = DistributedMap(batch_size=3)
        sink = pull(values(items), dmap, collect())
        handle = dmap.add_process_pool(INVERT, processes=2, **pool_kwargs)
        try:
            dmap.drive(sink, timeout=60)
            assert sink.result() == [invert_tile(tile) for tile in items]
        finally:
            dmap.close()
        transport = pool_kwargs["transport"]
        assert_traced_frames(dmap, transport, total_values=len(items))
        if transport == "shm":
            if "slot_size" in pool_kwargs:
                # In-band fallback: nothing crossed the ring, so no payload
                # samples — but the fallback counter proves the path ran.
                assert handle.pool.ring.fallbacks > 0
                assert dmap.obs.frame_payload.count(transport="shm") == 0
            else:
                assert handle.pool.ring.fallbacks == 0
                assert dmap.obs.frame_payload.count(transport="shm") > 0
                assert dmap.obs.frame_payload.sum(transport="shm") > 0

    def test_metrics_off_restores_untraced_frames(self):
        items = tiles(6)
        dmap = DistributedMap(batch_size=3, metrics=False)
        sink = pull(values(items), dmap, collect())
        dmap.add_process_pool(INVERT, processes=1, transport="shm")
        try:
            dmap.drive(sink, timeout=60)
            assert sink.result() == [invert_tile(tile) for tile in items]
        finally:
            dmap.close()
        assert dmap.obs.trace.events("frame") == []
        assert dmap.obs.frames.value(transport="shm") == 0
        assert dmap.obs.frame_overhead.count(transport="shm") == 0


class TestWsTransport:
    def test_frames_traced_over_the_wire(self):
        dmap = DistributedMap(scheduler="asyncio", batch_size=2)
        sink = pull(from_iterable(range(20)), dmap, collect())
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        thread, box = start_volunteer_thread(gateway.url, tabs=2)
        try:
            dmap.drive(sink, timeout=30)
            assert sink.result() == [-i for i in range(20)]
        finally:
            dmap.close()
            thread.join(10)
        assert box["report"].graceful
        assert_traced_frames(dmap, "ws", total_values=20)
        # The gateway measured the packed wire frames both ways.
        assert dmap.obs.frame_payload.count(transport="ws") > 0
        assert gateway.bytes_sent > 0
        assert gateway.bytes_received > 0

    def test_metrics_off_over_the_wire(self):
        dmap = DistributedMap(scheduler="asyncio", batch_size=2, metrics=False)
        sink = pull(from_iterable(range(8)), dmap, collect())
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        thread, box = start_volunteer_thread(gateway.url)
        try:
            dmap.drive(sink, timeout=30)
            assert sink.result() == [-i for i in range(8)]
        finally:
            dmap.close()
            thread.join(10)
        assert box["report"].graceful
        assert dmap.obs.trace.events("frame") == []
        assert dmap.obs.frame_payload.count(transport="ws") == 0
