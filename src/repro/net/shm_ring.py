"""Shared-memory slot ring: the cheap data plane for process-pool frames.

The pool backend's wire protocol pickles every ``Batch`` through the
worker process's pipe — fine for control records, ruinous for the
payloads the paper's applications actually move (raytraced pixel buffers,
Landsat tiles).  :class:`ShmRing` splits the two planes: one
``multiprocessing.shared_memory`` block is divided into fixed-size slots,
payload bytes cross the process boundary with a single memcpy into a slot,
and only a tiny control record — ``(slot index, length, tag, meta)`` —
travels on the pipe.  The receiving process maps the same block by name and
reads the payload straight out of the slot (zero-copy for numpy arrays, one
memcpy for ``bytes``).

Ownership protocol (what keeps the ring leak-proof without cross-process
locks): **slots are only ever acquired and released by the master**, and a
slot's lifetime is tied to the frame that carried it.  Submitting a frame
acquires its slots; the child may *reuse* a frame's own slots to return
results (the input payload has been consumed by then); delivering — or
failing, cancelling, or shutting down — the frame releases them.  A payload
that does not fit any slot, or finds the ring exhausted, simply stays
in-band on the pipe: the ring degrades to the old transport, it never
blocks and never drops.

Every release in :class:`~repro.pool.process_pool.ProcessPoolWorker` is one
of three, and none can hand a slot to a new frame while a child may still
write to it:

* ``_push_heads``, after the frame's reply has been copied out: the reply
  is the child's last word on that frame — it wrote its results into the
  slots *before* sending it — so the child is done with them;
* ``_submit``, when packing the frame fails: the frame was never sent, so
  no child has heard of its slots;
* ``_shutdown``, just before ``ring.close()``: a child may still be running
  one of those frames, but the closed ring acquires nothing again, so the
  released slots are never reissued (the child's own mapping stays valid
  until it exits).

Reuse order: the free list is a stack — :meth:`ShmRing.acquire` reissues
the slot released most recently, and a fresh ring hands out slot 0 first,
then 1, and so on.  The slots a pool ever touches are therefore exactly
``range(ring.peak_in_use)``, its in-flight high-water mark, which the
Limiter window bounds: the ring *reserves* ``slot_count × slot_size`` of
``/dev/shm`` but only the pages of the slots in that range ever become
resident, in the master and in the children.  A FIFO free list walked every
slot of the ring even at a window of a few frames (``tiles_shm``: 8 tiles in
flight through 64 × 1 MiB slots touched all 64 MiB on both sides), and
each slot it reissued was the one used least recently.

Entry format (pickled inside the frame's control record)::

    ("inline", value, spare)              # in-band; *spare* is a slot the
                                          # child may use for the result
                                          # (None when the ring had none)
    ("shm", slot, length, tag, meta)      # payload lives in ring slot

The *spare* slot covers the asymmetric frames of the paper's applications —
a tiny render spec in, a megabyte pixel buffer out: the input travels
in-band, but its result still comes back through the ring.

The child-side helpers (:func:`load_entry`, :func:`store_entry`,
:func:`attach_ring`) are plain module-level functions, picklable under every
start method, with the attachment cached per process.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from typing import Any, List, Optional, Sequence, Set, Tuple

from ..errors import PandoError
from .serialization import OOB_MIN_BYTES, oob_unpack
from .wire import fetch_values, place_values

__all__ = [
    "DEFAULT_SLOT_COUNT",
    "DEFAULT_SLOT_SIZE",
    "ShmRing",
    "pack_frame",
    "unpack_frame",
    "attach_ring",
    "load_entry",
    "store_entry",
]

#: Default ring geometry: 32 slots of 1 MiB keeps two batched Limiter
#: windows of large frames in flight.  That is the reservation on /dev/shm, a
#: rounding error on any host; what becomes resident is only the slots the
#: window has had in flight at once (see "Reuse order" above).  Both knobs
#: are per-pool configurable.
DEFAULT_SLOT_COUNT = 32
DEFAULT_SLOT_SIZE = 1 << 20


class ShmRing:
    """A ring of fixed-size shared-memory slots with master-side accounting.

    The creating process owns the block and the free list; attached
    processes (see :func:`attach_ring`) only read and write slot contents
    they were handed via control records.  ``acquire`` never blocks: it
    returns ``None`` when the ring is exhausted, which callers treat as the
    in-band fallback.  It reissues the most recently released slot, so
    the slots ever handed out are ``range(peak_in_use)``.
    """

    def __init__(
        self,
        slot_count: int = DEFAULT_SLOT_COUNT,
        slot_size: int = DEFAULT_SLOT_SIZE,
    ) -> None:
        if slot_count < 1:
            raise PandoError("ShmRing needs at least one slot")
        if slot_size < 1:
            raise PandoError("ShmRing slots need a positive size")
        self.slot_count = slot_count
        self.slot_size = slot_size
        self._shm: Optional[shared_memory.SharedMemory] = shared_memory.SharedMemory(
            create=True, size=slot_count * slot_size
        )
        self.name = self._shm.name
        # Fork-started pool children inherit this object; only the
        # creating process may unlink the block (see close()).
        self._owner_pid = os.getpid()
        # A stack with slot 0 on top: acquire pops, release pushes.
        self._free: List[int] = list(range(slot_count - 1, -1, -1))
        self._held: Set[int] = set()
        # counters for benches and the leak assertions of the test suite
        self.slots_acquired = 0
        self.slots_released = 0
        self._peak_in_use = 0
        #: payloads that stayed in-band (too large for a slot, or exhausted)
        self.fallbacks = 0
        #: payload bytes moved through slots (both directions, master side)
        self.bytes_written = 0
        self.bytes_read = 0

    # --------------------------------------------------------------- slots
    @property
    def in_use(self) -> int:
        """Slots currently acquired and not yet released."""
        return len(self._held)

    @property
    def peak_in_use(self) -> int:
        """The most slots ever held at once: the ring's resident footprint
        in slots, since only ``range(peak_in_use)`` was ever handed out."""
        return self._peak_in_use

    @property
    def free_slots(self) -> int:
        return len(self._free)

    @property
    def closed(self) -> bool:
        return self._shm is None

    def acquire(self) -> Optional[int]:
        """Take the most recently released free slot, or ``None`` when the
        ring is exhausted/closed."""
        if self._shm is None or not self._free:
            return None
        slot = self._free.pop()
        self._held.add(slot)
        self.slots_acquired += 1
        if len(self._held) > self._peak_in_use:
            self._peak_in_use = len(self._held)
        return slot

    def release(self, slot: int) -> None:
        """Return *slot* to the free list (exactly once per acquisition)."""
        if slot not in self._held:
            raise PandoError(f"slot {slot} is not acquired (double release?)")
        self._held.discard(slot)
        self._free.append(slot)
        self.slots_released += 1

    def release_all(self, slots: Sequence[int]) -> None:
        """Release every slot in *slots*, even when one release fails.

        A double release mid-sequence must not abandon the remaining slots
        (each would leak until :meth:`close`): every slot gets its release
        attempted, then the first error is re-raised.
        """
        first_error: Optional[BaseException] = None
        for slot in slots:
            try:
                self.release(slot)
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def write(self, slot: int, data: Any) -> int:
        """memcpy *data* (a bytes-like) into *slot*; returns the length."""
        if self._shm is None:
            raise PandoError("ShmRing is closed")
        view = memoryview(data)
        length = view.nbytes
        if length > self.slot_size:
            raise PandoError(
                f"payload of {length} bytes exceeds the {self.slot_size}-byte slot"
            )
        offset = slot * self.slot_size
        self._shm.buf[offset : offset + length] = view.cast("B")
        self.bytes_written += length
        return length

    def view(self, slot: int, length: int) -> memoryview:
        """A zero-copy view of *slot*'s first *length* bytes."""
        if self._shm is None:
            raise PandoError("ShmRing is closed")
        offset = slot * self.slot_size
        return self._shm.buf[offset : offset + length]

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Unmap and unlink the block (idempotent; counters stay readable)."""
        shm, self._shm = self._shm, None
        if shm is not None:
            shm.close()
            if os.getpid() == self._owner_pid:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self.closed else "open"
        return (
            f"<ShmRing {self.name} {state} {self.slot_count}x{self.slot_size}B "
            f"in_use={self.in_use}>"
        )


# --------------------------------------------------------------------------
# Master side: frames in and out of the ring.
# --------------------------------------------------------------------------


def pack_frame(
    ring: ShmRing, values: Sequence[Any], min_bytes: int = OOB_MIN_BYTES
) -> Tuple[List[Any], List[int]]:
    """Move a frame's eligible payloads into ring slots.

    Returns ``(entries, slots)``: one entry per value (``("inline", ...)``
    or ``("shm", ...)``) and the slots acquired for the frame, in entry
    order — the caller owns them until the frame's result is consumed.
    The codec's placement loop (:func:`~repro.net.wire.place_values`) runs
    with a ring slot as the place: a payload stays in-band when it is small
    (below *min_bytes*), has no flat byte form, exceeds the slot size, or
    the ring is exhausted.  An in-band value still gets a *spare* slot so an
    asymmetric frame — small input, large result — returns its result
    through the ring too; spares are only granted while the ring keeps a
    quarter of its slots free, so frames of small control values cannot
    starve the large payloads the ring exists for.
    """
    slots: List[int] = []
    spare_reserve = ring.slot_count // 4

    def place(tag: str, buffer: Any, meta: Any, length: int) -> Optional[Tuple[Any, ...]]:
        slot = ring.acquire() if length <= ring.slot_size else None
        if slot is None:
            return None
        try:
            ring.write(slot, buffer)
        except Exception:
            # A buffer the codec accepted but the ring rejects is a bug
            # worth surfacing — but never at the cost of stranding the slot.
            ring.release(slot)
            raise
        slots.append(slot)
        return ("shm", slot, length, tag, meta)

    def inline(value: Any, refused: bool) -> Tuple[Any, ...]:
        if refused:
            ring.fallbacks += 1
        spare = ring.acquire() if ring.free_slots > spare_reserve else None
        if spare is not None:
            slots.append(spare)
        return ("inline", value, spare)

    return place_values(values, min_bytes, place, inline), slots


def unpack_frame(ring: ShmRing, entries: Sequence[Any]) -> List[Any]:
    """Materialise a frame's values from its control entries (master side).

    The codec's fetch loop copies every payload out of the ring — the caller
    releases the frame's slots immediately afterwards, so no returned value
    may alias a slot.
    """

    def fetch(entry: Any) -> Tuple[str, memoryview, Any]:
        _kind, slot, length, tag, meta = entry
        ring.bytes_read += length
        return tag, ring.view(slot, length), meta

    ring.fallbacks += sum(
        1 for entry in entries if entry[0] == "inline" and entry[2] == "fallback"
    )
    return fetch_values(entries, fetch)


# --------------------------------------------------------------------------
# Child side: attach by name, read inputs, write results back.
# --------------------------------------------------------------------------

#: Per-process cache of attached blocks, keyed by shared-memory name.
_ATTACHED: dict = {}


def attach_ring(name: str) -> shared_memory.SharedMemory:
    """Map the ring block *name* into this process (cached).

    Pool children share the master's resource-tracker process, whose
    per-name cache is a set: the attach below re-registers a name the
    master already registered (a no-op), and the master's ``unlink``
    removes it exactly once — so neither side may *unregister* on the
    child's behalf, and no tracker bookkeeping is needed here.
    """
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached
    shm = shared_memory.SharedMemory(name=name)
    _ATTACHED[name] = shm
    return shm


def load_entry(name: str, slot_size: int, entry: Any, copy: bool = False) -> Any:
    """Rebuild one value from a control entry (child side).

    ``copy=False`` is the zero-copy read: an ``"nd"`` payload comes back as
    a numpy array viewing the slot directly.  The value is only guaranteed
    valid until the frame's result is returned (the master releases the
    slots then), which holds for the batch-apply loop the pool runs.
    """
    if entry[0] == "inline":
        return entry[1]
    _kind, slot, length, tag, meta = entry
    shm = attach_ring(name)
    offset = slot * slot_size
    return oob_unpack(tag, shm.buf[offset : offset + length], meta, copy=copy)


def store_entry(
    name: str,
    slot_size: int,
    entry: Any,
    result: Any,
    min_bytes: int = OOB_MIN_BYTES,
) -> Any:
    """Write one result back through the frame's slot when possible.

    The frame owns its slots until the master consumes the result, and an
    ``("shm", ...)`` input's payload has already been applied — so an
    eligible result overwrites the input slot in place (one memcpy, nothing
    on the pipe); an ``("inline", ...)`` input offers its spare slot the
    same way.  A result that is in-band-shaped, small (below *min_bytes*),
    oversized, or without a slot to use is returned inline — exactly the
    graceful degradation of the submit side; a slot-worthy result the ring
    could not carry is marked ``"fallback"`` so
    :func:`unpack_frame` folds it into the master's fallback counter.
    """
    slot = entry[2] if entry[0] == "inline" else entry[1]

    def place(tag: str, buffer: Any, meta: Any, length: int) -> Optional[Tuple[Any, ...]]:
        if slot is None or length > slot_size:
            return None
        shm = attach_ring(name)
        offset = slot * slot_size
        view = memoryview(buffer).cast("B")
        # A result that cannot alias the ring memcpys straight in; one that
        # might (a zero-copy ``nd`` load returned by an echo-style function)
        # is materialised first, because writing a buffer over itself through
        # a memoryview is undefined.  Owned bytes/bytearray objects never
        # alias; for ndarrays a cheap bounds check against the mapped block
        # decides (conservative: a false positive only costs the defensive
        # copy).
        if isinstance(result, (bytes, bytearray)) or _disjoint_from(shm, result):
            shm.buf[offset : offset + length] = view
        else:
            shm.buf[offset : offset + length] = bytes(view)
        return ("shm", slot, length, tag, meta)

    def inline(value: Any, refused: bool) -> Tuple[Any, ...]:
        # A slot-worthy result that the ring could not carry is flagged, so
        # the master's fallback counter covers the result plane too.
        return ("inline", value, "fallback" if refused else None)

    return place_values([result], min_bytes, place, inline)[0]


def _disjoint_from(shm: shared_memory.SharedMemory, result: Any) -> bool:
    """True when *result* is an ndarray provably outside *shm*'s mapping."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is in the baseline image
        return False
    if not isinstance(result, numpy.ndarray):
        return False
    block = numpy.frombuffer(shm.buf, dtype=numpy.uint8)
    try:
        return not numpy.may_share_memory(result, block)
    finally:
        del block
