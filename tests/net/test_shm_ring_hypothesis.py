"""Property tests for the shared-memory slot ring.

Three guarantees are pinned down over randomised payload sizes, ring
geometries and frame interleavings:

* **exactly-once round trip** — every value of every frame comes back
  through pack → child load/transform/store → unpack precisely once, in
  frame order, whatever mix of in-band and slot-backed entries the sizes
  produce;
* **no slot leaks** — across arbitrary interleavings of frame submission,
  in-order/out-of-order delivery and mid-stream aborts, every acquired slot
  is released and the free-list conservation invariant
  (``free + in_use == slot_count``) holds at every step;
* **graceful fallback** — a payload larger than the largest slot (or
  arriving when the ring is exhausted) travels in-band and still
  round-trips exactly;
* **footprint follows the window** — whatever the interleaving of acquires
  and releases, the slots ever handed out are exactly
  ``range(ring.peak_in_use)``.

The child side runs in-process here (the helpers are the same module-level
functions the executor children import), which keeps hypothesis shrinking
deterministic; the real cross-process path is covered by
``tests/pool/test_shm_transport.py`` and the churn suite.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net.serialization import oob_pack
from repro.net.shm_ring import (
    ShmRing,
    load_entry,
    pack_frame,
    store_entry,
    unpack_frame,
)

# Small geometries shrink well and exercise exhaustion quickly.
slot_counts = st.integers(min_value=1, max_value=6)
slot_sizes = st.sampled_from([64, 256, 1024])
payload_sizes = st.integers(min_value=0, max_value=2048)


def payload(index: int, size: int) -> bytes:
    """Distinct, content-checkable payload of exactly *size* bytes."""
    seed = index.to_bytes(4, "big")
    return (seed * (size // 4 + 1))[:size]


def transform(value):
    """The child-side function: content-dependent, size-preserving."""
    if isinstance(value, (bytes, bytearray)):
        return bytes(255 - b for b in bytes(value))
    return ("seen", value)


def child_apply(ring: ShmRing, entries, min_bytes: int):
    """Emulate ``run_shm_batch`` against *ring* without a subprocess."""
    return [
        store_entry(
            ring.name,
            ring.slot_size,
            entry,
            transform(load_entry(ring.name, ring.slot_size, entry)),
            min_bytes=min_bytes,
        )
        for entry in entries
    ]


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(payload_sizes, min_size=1, max_size=10),
        slot_count=slot_counts,
        slot_size=slot_sizes,
        min_bytes=st.sampled_from([1, 32, 512]),
    )
    def test_every_value_returns_exactly_once_in_order(
        self, sizes, slot_count, slot_size, min_bytes
    ):
        values = [payload(index, size) for index, size in enumerate(sizes)]
        with ShmRing(slot_count=slot_count, slot_size=slot_size) as ring:
            entries, slots = pack_frame(ring, values, min_bytes=min_bytes)
            results = unpack_frame(
                ring, child_apply(ring, entries, min_bytes)
            )
            ring.release_all(slots)
            assert results == [transform(value) for value in values]
            assert ring.in_use == 0
            assert ring.slots_acquired == ring.slots_released

    @settings(max_examples=25, deadline=None)
    @given(
        frames=st.lists(
            st.lists(payload_sizes, min_size=1, max_size=4), min_size=1, max_size=6
        ),
        slot_count=slot_counts,
        slot_size=slot_sizes,
    )
    def test_consecutive_frames_share_the_ring_exactly_once(
        self, frames, slot_count, slot_size
    ):
        """Frames submitted and delivered in sequence recycle slots; the
        concatenated results are the transformed inputs, exactly once."""
        with ShmRing(slot_count=slot_count, slot_size=slot_size) as ring:
            delivered = []
            index = 0
            for sizes in frames:
                values = [payload(index + offset, size)
                          for offset, size in enumerate(sizes)]
                index += len(sizes)
                entries, slots = pack_frame(ring, values, min_bytes=1)
                delivered.extend(
                    unpack_frame(ring, child_apply(ring, entries, 1))
                )
                ring.release_all(slots)
            expected = []
            index = 0
            for sizes in frames:
                expected.extend(
                    transform(payload(index + offset, size))
                    for offset, size in enumerate(sizes)
                )
                index += len(sizes)
            assert delivered == expected
            assert ring.in_use == 0


class TestNoLeaks:
    @settings(max_examples=40, deadline=None)
    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(["submit", "deliver", "abort"]),
                st.lists(payload_sizes, min_size=1, max_size=3),
                st.integers(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=20,
        ),
        slot_count=slot_counts,
        slot_size=slot_sizes,
    )
    def test_interleaved_submit_deliver_abort_never_leaks(
        self, script, slot_count, slot_size
    ):
        """An arbitrary interleaving of frame lifecycles — submissions,
        out-of-order deliveries, aborts of still-pending frames — keeps the
        conservation invariant at every step and leaks nothing at the end."""
        with ShmRing(slot_count=slot_count, slot_size=slot_size) as ring:
            live = {}
            next_frame = 0
            for op, sizes, pick in script:
                if op == "submit":
                    values = [payload(next_frame * 16 + offset, size)
                              for offset, size in enumerate(sizes)]
                    entries, slots = pack_frame(ring, values, min_bytes=1)
                    live[next_frame] = (values, entries, slots)
                    next_frame += 1
                elif live:
                    frame_id = sorted(live)[pick % len(live)]
                    values, entries, slots = live.pop(frame_id)
                    if op == "deliver":
                        results = unpack_frame(
                            ring, child_apply(ring, entries, 1)
                        )
                        assert results == [transform(v) for v in values]
                    # An aborted frame releases without ever being read.
                    ring.release_all(slots)
                # Conservation: every slot is free or held, never both/lost.
                assert ring.in_use + ring.free_slots == slot_count
                assert ring.in_use == sum(
                    len(slots) for _v, _e, slots in live.values()
                )
            for _values, _entries, slots in live.values():
                ring.release_all(slots)
            assert ring.in_use == 0
            assert ring.slots_acquired == ring.slots_released


class TestFootprint:
    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10)),
            max_size=40,
        ),
        slot_count=st.integers(min_value=1, max_value=8),
    )
    def test_the_slots_ever_handed_out_are_the_peak_in_use(self, script, slot_count):
        """Acquire (True) or release the *pick*-th held slot (False), in any
        order: the ring reissues released slots before it touches a new one,
        so the distinct slots it has handed out are ``range(peak_in_use)``."""
        with ShmRing(slot_count=slot_count, slot_size=64) as ring:
            held, seen, peak = [], set(), 0
            for acquire, pick in script:
                if acquire:
                    slot = ring.acquire()
                    if slot is not None:
                        held.append(slot)
                        seen.add(slot)
                elif held:
                    ring.release(held.pop(pick % len(held)))
                peak = max(peak, len(held))
                assert ring.peak_in_use == peak
                assert seen == set(range(ring.peak_in_use))
            ring.release_all(held)
            assert ring.peak_in_use == peak


class TestFallback:
    @settings(max_examples=30, deadline=None)
    @given(
        oversize=st.integers(min_value=1, max_value=1024),
        slot_count=slot_counts,
        slot_size=st.sampled_from([64, 256]),
    )
    def test_payload_exceeding_the_largest_slot_rides_the_pipe(
        self, oversize, slot_count, slot_size
    ):
        """A payload no slot can hold stays in-band (the pipe transport),
        counts as a fallback, acquires at most a spare — and still
        round-trips exactly."""
        value = payload(7, slot_size + oversize)
        with ShmRing(slot_count=slot_count, slot_size=slot_size) as ring:
            entries, slots = pack_frame(ring, [value], min_bytes=1)
            assert entries[0][0] == "inline"
            assert ring.fallbacks == 1
            assert ring.bytes_written == 0
            results = unpack_frame(ring, child_apply(ring, entries, 1))
            ring.release_all(slots)
            assert results == [transform(value)]
            assert ring.in_use == 0

    @settings(max_examples=20, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=64, max_value=256),
                          min_size=3, max_size=8))
    def test_exhaustion_degrades_to_the_pipe_without_loss(self, sizes):
        """A one-slot ring forces most of the frame in-band; nothing is
        lost, duplicated or reordered."""
        values = [payload(index, size) for index, size in enumerate(sizes)]
        with ShmRing(slot_count=1, slot_size=512) as ring:
            entries, slots = pack_frame(ring, values, min_bytes=1)
            assert len(slots) <= 1
            results = unpack_frame(ring, child_apply(ring, entries, 1))
            ring.release_all(slots)
            assert results == [transform(value) for value in values]
            assert ring.in_use == 0
            assert ring.slots_acquired == ring.slots_released


def test_oob_pack_none_for_unshaped_values_is_total():
    """The codec's in-band contract: anything without a flat byte shape
    packs to None, never raises (the fallback every layer relies on)."""
    for value in (0, 1.5, "s", [b"x"], {"k": b"v"}, object(), (1, 2)):
        assert oob_pack(value) is None
