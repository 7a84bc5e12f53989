"""Serialization helpers mirroring Pando's wire conventions.

The paper's usage example (Figure 2) gzip-compresses the rendered pixels and
base64-encodes them "which simplifies its transmission on the network"; all
other values travel as JSON strings on the WebSocket/WebRTC channel.  The
helpers below reproduce those conventions and, importantly for the simulator,
provide a consistent way to estimate the number of bytes a value occupies on
the wire so that the network model can charge transfer time for it.
"""

from __future__ import annotations

import base64
import gzip
import json
import os
import sys
from typing import Any

from ..analysis.annotations import any_thread

__all__ = [
    "encode_json",
    "encode_binary",
    "decode_binary",
    "estimate_size",
    "Batch",
    "BATCH_FRAME_OVERHEAD",
    "SizedPayload",
    "OOB_MIN_BYTES",
    "keep_payload_heap",
    "oob_pack",
    "oob_unpack",
]


def encode_json(value: Any) -> str:
    """Serialize *value* to a JSON string (compact separators)."""
    return json.dumps(value, separators=(",", ":"), default=_fallback)


def encode_binary(data: bytes) -> str:
    """gzip + base64 encode *data* (paper Figure 2, line 8).

    ``mtime=0`` keeps the gzip header free of the current second: equal
    pixels encode to equal strings, so a re-lent value recomputed on
    another worker equals the first answer.
    """
    return base64.b64encode(gzip.compress(data, mtime=0)).decode("ascii")


def decode_binary(encoded: str) -> bytes:
    """Inverse of :func:`encode_binary`."""
    return gzip.decompress(base64.b64decode(encoded.encode("ascii")))


#: Fixed per-frame overhead charged for the batch envelope on the wire.
BATCH_FRAME_OVERHEAD = 16


class Batch:
    """A wire frame carrying several consecutive stream values.

    Coalescing ``batch_size`` values into a single DATA frame amortises the
    per-frame dispatch overhead (one scheduler event and one latency charge on
    the simulated channels, one inter-process round trip on the process-pool
    backend).  A ``Batch`` is an explicit marker type — distinct from a plain
    list — so that list-*valued* stream elements are never mistaken for
    framing and flattened by :func:`repro.pullstream.throughs.unbatching`.
    """

    __slots__ = ("values",)

    def __init__(self, values: Any) -> None:
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Batch) and other.values == self.values

    # Mutable value container: defining __eq__ leaves Batch unhashable,
    # which is intended — frames are transient wire envelopes, not keys.

    @property
    def size_bytes(self) -> int:
        """Wire size: the batched payloads plus a fixed envelope overhead."""
        return BATCH_FRAME_OVERHEAD + sum(
            estimate_size(value) for value in self.values
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Batch n={len(self.values)} {self.size_bytes}B>"


class SizedPayload:
    """Wrap a value with an explicit wire size in bytes.

    Applications whose values stand for large binary blobs (e.g. the 168 kB
    Landsat tiles of the image-processing application) wrap them so the
    network model charges a realistic transfer time without the simulator
    having to materialise megabytes of data.
    """

    __slots__ = ("value", "size_bytes")

    def __init__(self, value: Any, size_bytes: int) -> None:
        self.value = value
        self.size_bytes = int(size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SizedPayload {self.size_bytes}B {self.value!r}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SizedPayload)
            and other.value == self.value
            and other.size_bytes == self.size_bytes
        )

    def __hash__(self) -> int:
        return hash((self.size_bytes, repr(self.value)))


def estimate_size(value: Any) -> int:
    """Estimate the wire size of *value* in bytes.

    Order of preference: an explicit :class:`SizedPayload`, a ``size_bytes``
    key of a mapping, a ``size_bytes`` attribute, raw ``bytes`` length, and
    finally the length of the JSON encoding.
    """
    if isinstance(value, (SizedPayload, Batch)):
        return value.size_bytes
    if isinstance(value, dict) and isinstance(value.get("size_bytes"), (int, float)):
        return int(value["size_bytes"])
    size_attr = getattr(value, "size_bytes", None)
    if isinstance(size_attr, (int, float)):
        return int(size_attr)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    try:
        return len(encode_json(value))
    except (TypeError, ValueError):
        return len(repr(value))


# --------------------------------------------------------------------------
# Out-of-band payload protocol (shared-memory data plane).
#
# Large binary stream values — raytraced pixel buffers, image tiles — do not
# have to travel on the same channel as the control records that frame them.
# ``oob_pack`` splits a value into a *tag* naming its wire shape, a flat
# buffer of payload bytes, and the metadata needed to rebuild it; the caller
# moves the buffer over whatever cheap data plane it owns (a
# :class:`~repro.net.shm_ring.ShmRing` slot) and ships only ``(tag, meta)``
# with the control record.  ``oob_unpack`` is the inverse.  Values that have
# no flat byte representation return ``None`` from ``oob_pack`` and stay
# in-band — the graceful-degradation contract every transport relies on.
# --------------------------------------------------------------------------

#: Payloads smaller than this stay in-band by default: below a few hundred
#: bytes the pickled control record is as cheap as the slot bookkeeping.
OOB_MIN_BYTES = 512

#: glibc ``mallopt`` parameters, and the values the allocator's dynamic
#: thresholds reach by themselves after one big ``free``: 32 MiB is its
#: ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, twice that its own trim ratio
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD

_heap_kept = False


@any_thread
def keep_payload_heap() -> None:
    """Tell the allocator, once per process, to keep freed payload blocks.

    glibc serves a MiB-sized ``bytes`` from ``mmap``, or trims it off the
    heap top on ``free``, so every copy out of a ring slot and every result
    a task function builds is handed fresh zeroed pages by the kernel —
    ~260 minor faults per MiB value, several times the cost of the copy
    itself.  Called by the codec's two per-value loops when a value goes out
    of band (:func:`repro.net.wire.place_values` /
    :func:`~repro.net.wire.fetch_values`), so a process that only moves
    small values never gets here; a forked child inherits the setting.  Up
    to 64 MiB of freed heap is then retained instead of returned.

    Nothing is set when the operator already decided (glibc's own
    ``MALLOC_MMAP_THRESHOLD_`` / ``MALLOC_TRIM_THRESHOLD_`` variables), and
    an allocator without ``mallopt`` (musl, macOS) is left alone silently.
    Either call freezes glibc's dynamic thresholds, and a frozen trim
    threshold above a *default* mmap threshold makes every MiB block an
    ``mmap``/``munmap`` pair: the trim threshold is only raised once the
    mmap threshold took.  A racing double call repeats the same two
    settings, which is harmless.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ:
        return
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
            mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    except Exception:
        pass


def oob_pack(value: Any) -> Any:
    """Split *value* into ``(tag, buffer, meta)`` for out-of-band transport.

    Returns ``None`` when the value has no flat byte representation (it must
    then travel in-band).  Supported shapes:

    * ``bytes`` / ``bytearray`` / ``memoryview`` — tag ``"raw"``, the bytes
      themselves; the metadata records a ``bytearray`` source so the
      receiver rebuilds the same type (a memoryview — unpicklable, so it
      could never cross in-band either — arrives as ``bytes``);
    * C-contiguous numpy arrays — tag ``"nd"``, the array's buffer, and
      ``(dtype_str, shape)`` so the receiver can rebuild the array without a
      pickle round-trip.
    """
    if isinstance(value, bytes):
        return ("raw", value, None)
    if isinstance(value, bytearray):
        return ("raw", value, "bytearray")
    if isinstance(value, memoryview):
        # ``cast`` is restricted to contiguous views; a strided view is
        # materialised instead (it is unpicklable, so falling back in-band
        # is not an option for it anyway).
        if not value.contiguous:
            return ("raw", bytes(value), None)
        if value.ndim != 1 or value.format not in ("B", "b", "c"):
            value = value.cast("B")
        return ("raw", value, None)
    # Only a process that has imported numpy can hold an array: asking
    # sys.modules keeps a pool of plain values (and a volunteer) numpy-free,
    # and getattr copes with a numpy whose import another thread is still
    # running (a volunteer's mask loader), which may not have ``ndarray`` yet.
    ndarray = getattr(sys.modules.get("numpy"), "ndarray", None)
    if (
        ndarray is not None
        and isinstance(value, ndarray)
        and value.ndim >= 1
        and value.size  # a view with a zero in its shape cannot be cast
        and value.flags["C_CONTIGUOUS"]
        and value.dtype.hasobject is False
    ):
        return ("nd", value.data.cast("B"), (value.dtype.str, value.shape))
    return None


def oob_unpack(tag: str, buffer: Any, meta: Any, copy: bool = True) -> Any:
    """Rebuild a value from its out-of-band ``(tag, buffer, meta)`` form.

    With ``copy=False`` the returned value aliases *buffer* where the shape
    allows it (a numpy array viewing a shared-memory slot — the zero-copy
    read path); the caller then guarantees the buffer outlives the value.
    ``copy=True`` materialises an owned copy, which is what a receiver must
    do before releasing the slot the buffer lives in.
    """
    if tag == "raw":
        return bytearray(buffer) if meta == "bytearray" else bytes(buffer)
    if tag == "nd":
        import numpy

        dtype_str, shape = meta
        array = numpy.frombuffer(buffer, dtype=numpy.dtype(dtype_str)).reshape(shape)
        return array.copy() if copy else array
    raise ValueError(f"unknown out-of-band payload tag {tag!r}")


def _fallback(value: Any) -> Any:
    """JSON fallback for non-serialisable objects (size estimation only)."""
    if isinstance(value, SizedPayload):
        return {"size_bytes": value.size_bytes}
    if isinstance(value, Batch):
        return value.values
    return repr(value)
