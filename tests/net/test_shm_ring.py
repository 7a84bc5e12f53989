"""Unit tests for the shared-memory slot ring and the out-of-band codec."""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

from repro.errors import PandoError
from repro.net.serialization import oob_pack, oob_unpack
from repro.net.shm_ring import (
    ShmRing,
    load_entry,
    pack_frame,
    store_entry,
    unpack_frame,
)


class TestOobCodec:
    def test_bytes_round_trip(self):
        tag, buffer, meta = oob_pack(b"payload" * 100)
        assert tag == "raw" and meta is None
        assert oob_unpack(tag, buffer, meta) == b"payload" * 100

    def test_bytearray_round_trip_preserves_the_type(self):
        """Regression: the codec returned bytes for bytearray inputs, so
        flipping a pool to transport="shm" changed the type the task
        function (and the downstream sink) observed."""
        value = bytearray(b"abc" * 50)
        tag, buffer, meta = oob_pack(value)
        rebuilt = oob_unpack(tag, buffer, meta)
        assert isinstance(rebuilt, bytearray)
        assert rebuilt == value

    def test_memoryview_round_trips_as_bytes(self):
        tag, buffer, meta = oob_pack(memoryview(b"xyz" * 50))
        rebuilt = oob_unpack(tag, buffer, meta)
        assert isinstance(rebuilt, bytes)
        assert rebuilt == b"xyz" * 50

    def test_ndarray_round_trip_preserves_dtype_and_shape(self):
        array = np.arange(600, dtype=np.float32).reshape(20, 30)
        tag, buffer, meta = oob_pack(array)
        assert tag == "nd"
        rebuilt = oob_unpack(tag, buffer, meta)
        assert rebuilt.dtype == array.dtype
        assert rebuilt.shape == array.shape
        assert (rebuilt == array).all()

    def test_a_numpy_still_being_imported_packs_nothing(self, monkeypatch):
        """Regression: a volunteer imports numpy on a thread of its own while
        its tabs pack answers; a value packed meanwhile met a numpy module
        without ``ndarray`` yet and failed its task with AttributeError."""
        monkeypatch.setitem(sys.modules, "numpy", types.ModuleType("numpy"))
        assert oob_pack(7) is None
        assert oob_pack({"n": 1}) is None

    def test_zero_copy_unpack_aliases_the_buffer(self):
        array = np.arange(100, dtype=np.int64)
        tag, buffer, meta = oob_pack(array)
        view = oob_unpack(tag, buffer, meta, copy=False)
        assert np.shares_memory(view, array)

    def test_strided_memoryview_is_materialised_not_rejected(self):
        """Regression: a non-contiguous memoryview passed oob_pack but blew
        up in ``ShmRing.write``'s cast (leaking the acquired slot).  It is
        unpicklable, so in-band is no fallback either — the codec must
        materialise it."""
        strided = memoryview(bytes(range(256)))[::2]
        tag, buffer, meta = oob_pack(strided)
        assert tag == "raw" and isinstance(buffer, bytes)
        assert oob_unpack(tag, buffer, meta) == bytes(strided)

    def test_strided_memoryview_round_trips_through_the_ring(self):
        strided = memoryview(bytes(2048))[::2]
        with ShmRing(slot_count=2, slot_size=4096) as ring:
            entries, slots = pack_frame(ring, [strided], min_bytes=1)
            assert entries[0][0] == "shm"
            assert unpack_frame(ring, entries) == [bytes(strided)]
            ring.release_all(slots)
            assert ring.in_use == 0

    def test_inband_shapes_return_none(self):
        for value in (42, "text", {"size": 3}, [1, 2], None):
            assert oob_pack(value) is None

    def test_non_contiguous_array_stays_inband(self):
        array = np.arange(100, dtype=np.int64).reshape(10, 10)[:, ::2]
        assert not array.flags["C_CONTIGUOUS"]
        assert oob_pack(array) is None

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError):
            oob_unpack("bogus", b"", None)


class TestShmRing:
    def test_geometry_validation(self):
        with pytest.raises(PandoError):
            ShmRing(slot_count=0)
        with pytest.raises(PandoError):
            ShmRing(slot_size=0)

    def test_acquire_release_accounting(self):
        with ShmRing(slot_count=3, slot_size=64) as ring:
            slots = [ring.acquire() for _ in range(3)]
            assert sorted(slots) == [0, 1, 2]
            assert ring.acquire() is None  # exhausted, never blocks
            assert ring.in_use == 3 and ring.free_slots == 0
            ring.release(slots[1])
            assert ring.acquire() == slots[1]  # recycled
            ring.release_all([slots[0], slots[1], slots[2]])
            assert ring.in_use == 0
            assert ring.slots_acquired == 4
            assert ring.slots_released == 4

    def test_double_release_raises(self):
        with ShmRing(slot_count=1, slot_size=8) as ring:
            slot = ring.acquire()
            ring.release(slot)
            with pytest.raises(PandoError):
                ring.release(slot)

    def test_release_all_survives_a_failing_release_mid_sequence(self):
        # Regression: a double release in the middle of the batch used to
        # abort the loop, leaking every slot after it until close().  Now
        # every release is attempted and the first error re-raised.
        with ShmRing(slot_count=4, slot_size=8) as ring:
            slots = [ring.acquire() for _ in range(4)]
            ring.release(slots[1])  # make slots[1] a double release below
            with pytest.raises(PandoError, match="double release"):
                ring.release_all(slots)
            # the three healthy slots were still released
            assert ring.in_use == 0
            assert ring.free_slots == 4

    def test_release_all_reports_the_first_of_several_errors(self):
        with ShmRing(slot_count=3, slot_size=8) as ring:
            held = ring.acquire()
            with pytest.raises(PandoError, match="slot 1 is not acquired"):
                ring.release_all([1, 2, held])
            assert ring.in_use == 0  # the held slot still came back

    def test_write_and_view(self):
        with ShmRing(slot_count=2, slot_size=16) as ring:
            assert ring.write(1, b"0123456789") == 10
            view = ring.view(1, 10)
            assert bytes(view) == b"0123456789"
            view.release()

    def test_oversized_write_raises(self):
        with ShmRing(slot_count=1, slot_size=8) as ring:
            with pytest.raises(PandoError):
                ring.write(0, b"way too large for the slot")

    def test_close_is_idempotent_and_counters_survive(self):
        ring = ShmRing(slot_count=2, slot_size=32)
        ring.acquire()
        acquired = ring.slots_acquired
        ring.close()
        ring.close()
        assert ring.closed
        assert ring.slots_acquired == acquired
        assert ring.acquire() is None
        with pytest.raises(PandoError):
            ring.write(0, b"x")


class TestFramePacking:
    def test_large_payloads_go_through_slots(self):
        with ShmRing(slot_count=4, slot_size=4096) as ring:
            payloads = [b"a" * 2048, b"b" * 2048]
            entries, slots = pack_frame(ring, payloads)
            assert [entry[0] for entry in entries] == ["shm", "shm"]
            assert len(slots) == 2
            assert unpack_frame(ring, entries) == payloads
            ring.release_all(slots)
            assert ring.in_use == 0

    def test_small_payloads_stay_inline_with_a_spare(self):
        with ShmRing(slot_count=4, slot_size=4096) as ring:
            entries, slots = pack_frame(ring, [b"tiny", 42])
            assert [entry[0] for entry in entries] == ["inline", "inline"]
            # Each inline value got a spare slot for its result.
            assert len(slots) == 2
            assert all(entry[2] is not None for entry in entries)
            assert unpack_frame(ring, entries) == [b"tiny", 42]
            ring.release_all(slots)

    def test_oversized_payload_falls_back_inline(self):
        with ShmRing(slot_count=4, slot_size=64) as ring:
            big = b"z" * 1024
            entries, slots = pack_frame(ring, [big])
            assert entries[0][0] == "inline" and entries[0][1] == big
            assert ring.fallbacks == 1
            ring.release_all(slots)

    def test_inband_memoryview_fallbacks_are_picklable(self):
        """Regression: a memoryview that missed the ring (too small, too
        large, or exhausted) went inline as-is and blew up the executor's
        pickling; every in-band fallback must materialise it."""
        import pickle

        small = memoryview(b"s" * 16)
        big = memoryview(b"b" * 4096)
        with ShmRing(slot_count=1, slot_size=1024) as ring:
            entries, slots = pack_frame(ring, [small, big], min_bytes=512)
            for entry in entries:
                assert entry[0] == "inline"
                assert isinstance(entry[1], bytes)
                pickle.dumps(entry)
            assert unpack_frame(ring, entries) == [bytes(small), bytes(big)]
            ring.release_all(slots)

    def test_spares_keep_a_quarter_of_the_ring_free(self):
        """Frames of small control values must not starve the payloads the
        ring exists for: spares stop at the reserve line."""
        with ShmRing(slot_count=8, slot_size=4096) as ring:
            entries, slots = pack_frame(ring, list(range(8)), min_bytes=1)
            assert len(slots) == 6  # 8 - 8 // 4 reserved for payloads
            assert [entry[2] is not None for entry in entries].count(True) == 6
            # A genuinely large payload still finds a slot.
            payload_entries, payload_slots = pack_frame(
                ring, [b"p" * 2048], min_bytes=1
            )
            assert payload_entries[0][0] == "shm"
            ring.release_all(slots + payload_slots)
            assert ring.in_use == 0

    def test_exhausted_ring_falls_back_inline(self):
        with ShmRing(slot_count=1, slot_size=4096) as ring:
            entries, slots = pack_frame(ring, [b"a" * 2048, b"b" * 2048])
            assert entries[0][0] == "shm"
            # Second payload found no slot: in-band, no spare either.
            assert entries[1][0] == "inline" and entries[1][2] is None
            assert ring.fallbacks == 1
            assert unpack_frame(ring, entries) == [b"a" * 2048, b"b" * 2048]
            ring.release_all(slots)


class TestChildSideEntries:
    def test_load_and_store_round_trip(self):
        with ShmRing(slot_count=2, slot_size=4096) as ring:
            entries, slots = pack_frame(ring, [b"q" * 2048])
            loaded = load_entry(ring.name, ring.slot_size, entries[0])
            assert loaded == b"q" * 2048
            result_entry = store_entry(
                ring.name, ring.slot_size, entries[0], loaded[::-1]
            )
            assert result_entry[0] == "shm"
            assert unpack_frame(ring, [result_entry]) == [loaded[::-1]]
            ring.release_all(slots)

    def test_store_through_a_spare_slot(self):
        with ShmRing(slot_count=2, slot_size=4096) as ring:
            entries, slots = pack_frame(ring, [{"spec": 1}])
            assert entries[0][0] == "inline" and entries[0][2] is not None
            result_entry = store_entry(
                ring.name, ring.slot_size, entries[0], b"r" * 2048
            )
            assert result_entry[0] == "shm"
            assert unpack_frame(ring, [result_entry]) == [b"r" * 2048]
            ring.release_all(slots)

    def test_small_or_unshaped_results_return_inline(self):
        with ShmRing(slot_count=2, slot_size=4096) as ring:
            entries, slots = pack_frame(ring, [b"x" * 2048])
            for result in (b"tiny", {"found": True}, 7):
                entry = store_entry(ring.name, ring.slot_size, entries[0], result)
                assert entry == ("inline", result, None)
            ring.release_all(slots)

    def test_oversized_result_returns_inline_and_counts_as_fallback(self):
        with ShmRing(slot_count=2, slot_size=1024) as ring:
            entries, slots = pack_frame(ring, [b"x" * 1024])
            entry = store_entry(ring.name, ring.slot_size, entries[0], b"y" * 2048)
            assert entry == ("inline", b"y" * 2048, "fallback")
            # The master folds result-plane fallbacks into the counter.
            before = ring.fallbacks
            assert unpack_frame(ring, [entry]) == [b"y" * 2048]
            assert ring.fallbacks == before + 1
            ring.release_all(slots)

    def test_echo_of_a_zero_copy_load_is_safe(self):
        """A function returning its zero-copy ndarray input makes the store
        write a buffer over itself; the defensive copy must keep it exact."""
        array = np.arange(512, dtype=np.float64)
        with ShmRing(slot_count=2, slot_size=8192) as ring:
            entries, slots = pack_frame(ring, [array])
            loaded = load_entry(ring.name, ring.slot_size, entries[0], copy=False)
            entry = store_entry(ring.name, ring.slot_size, entries[0], loaded)
            assert entry[0] == "shm"
            (rebuilt,) = unpack_frame(ring, [entry])
            assert (rebuilt == array).all()
            ring.release_all(slots)
