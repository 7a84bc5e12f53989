"""The one frame codec: a frame of values to bytes and back.

Every transport that moves a frame between a master and a worker — the pool
child's pipe, the shared-memory ring, the websocket — uses the layout and the
two loops of this module, and no other module under ``repro.net`` or
``repro.worker`` touches :mod:`pickle`:

* **Layout** (:func:`encode` / :func:`decode`)::

      u32 control length | control pickle | out-of-band buffers

  The control record is a dict; with values it carries one entry per value,
  ``("inline", value)`` or ``("oob", tag, meta, length)``, the latter naming
  the next *length* bytes of the tail.  A websocket binary frame is exactly
  this; a pipe message is this behind an 8-byte length
  (:func:`pipe_message` / :func:`read_pipe_message`).
* **One placement loop** (:func:`place_values`): each value's flat byte form
  (:func:`~repro.net.serialization.oob_pack`) — a bytes-like at or above the
  threshold, an array of any size — is offered to a *place* hook — the tail
  here, a ring slot in :func:`~repro.net.shm_ring.pack_frame` and
  ``store_entry`` — and travels inline otherwise; the one spot a
  ``memoryview`` (unpicklable) is materialised.  **One fetch loop**
  (:func:`fetch_values`) is its inverse.
* **Record schema**, the same in both directions and on every transport:
  DATA ``{kind, seq, trace?}`` + values, answered in order by RESULT
  ``{kind, seq, ok, trace?, error?}`` + values.  The sender keeps a
  :class:`Frame` per DATA frame in flight and :func:`claim` checks each
  RESULT against the oldest one.

Who may execute what is fixed at each call site.  ``decode(payload,
trusted=False)`` is for bytes a network peer chose (the gateway reading a
volunteer): every length is checked against the buffer, trailing bytes are
refused, and the control record is read by an unpickler that resolves **no**
global — so it can only build ``None``/``bool``/``int``/``float``/``str``/
``bytes``/``bytearray``/``list``/``tuple``/``dict``/``set``/``frozenset``
— after a walk over its opcodes that refuses what could make the unpickler
allocate more than the record holds (an explicit memo index, a declared
length past the end).  ``trusted=True`` is plain :func:`pickle.loads`, for
the two directions that run the master's code by design: a master and the
pool children it forked, and a volunteer reading its master.  Either way the
only exception :func:`decode` raises is :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import io
import pickle
import pickletools
import socket
import struct
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..analysis.annotations import any_thread
from ..errors import ProtocolError
from .serialization import OOB_MIN_BYTES, Batch, keep_payload_heap, oob_pack, oob_unpack

__all__ = [
    "DATA",
    "RESULT",
    "Frame",
    "claim",
    "decode",
    "encode",
    "fetch_values",
    "payload_size",
    "pipe_message",
    "place_values",
    "read_pipe_message",
]

#: Control-record kinds of the frame exchange.
DATA = "data"
RESULT = "result"

_CONTROL_LENGTH = struct.Struct("!I")
#: the length prefix of a pipe message (what :data:`repro.net.endpoint.PIPE`
#: parses on the master's side of a pool pipe)
PIPE_LENGTH = struct.Struct("!Q")

#: below this a pipe message goes out as one write; above it nothing is
#: copied behind the length prefix
_ONE_WRITE_BYTES = 1 << 16


def _nbytes(buffer: Any) -> int:
    return buffer.nbytes if isinstance(buffer, memoryview) else len(buffer)


def payload_size(parts: Sequence[Any]) -> int:
    """Total bytes of a list of bytes-like parts."""
    return sum(map(_nbytes, parts))


# --------------------------------------------------------------------------
# The two per-value loops
# --------------------------------------------------------------------------

#: ``place(tag, buffer, meta, length)`` -> the entry that carries the buffer
#: out of band, or None when it has to stay inline
Place = Callable[[str, Any, Any, int], Optional[Tuple[Any, ...]]]
#: ``inline(value, refused)`` -> the entry that carries *value* in the
#: control record; *refused* says *place* was asked and declined
Inline = Callable[[Any, bool], Tuple[Any, ...]]


def place_values(
    values: Sequence[Any], min_bytes: int, place: Place, inline: Inline
) -> List[Tuple[Any, ...]]:
    """One control entry per value: placed out of band, or inline.

    *min_bytes* is the threshold for ``bytes``-like values only.  An array
    is offered to *place* whatever its size: its inline form is a pickle
    that names numpy globals, which a reader that resolves none refuses.
    """
    entries: List[Tuple[Any, ...]] = []
    for value in values:
        entry, refused = None, False
        packed = oob_pack(value)
        if packed is not None:
            tag, buffer, meta = packed
            length = _nbytes(buffer)
            if length >= min_bytes or tag == "nd":
                keep_payload_heap()
                entry = place(tag, buffer, meta, length)
                refused = entry is None
            if entry is None and isinstance(value, memoryview):
                # Unpicklable, so its bytes are the only inline form it has
                # (the shape oob_unpack gives the out-of-band one).
                value = bytes(value)
        entries.append(entry if entry is not None else inline(value, refused))
    return entries


def fetch_values(
    entries: Sequence[Any], fetch: Callable[[Any], Tuple[str, memoryview, Any]]
) -> List[Any]:
    """Inverse of :func:`place_values`: owned values from control entries.

    ``fetch(entry)`` returns ``(tag, view, meta)`` for an out-of-band entry;
    the value is copied out of the view, which is released at once — no
    returned value aliases the payload or a ring slot.
    """
    values: List[Any] = []
    for entry in entries:
        if entry[0] == "inline":
            values.append(entry[1])
            continue
        keep_payload_heap()
        tag, view, meta = fetch(entry)
        try:
            values.append(oob_unpack(tag, view, meta, copy=True))
        finally:
            view.release()
    return values


# --------------------------------------------------------------------------
# The layout
# --------------------------------------------------------------------------


def _inline_entry(value: Any, _refused: bool) -> Tuple[Any, ...]:
    return ("inline", value)


@any_thread
def encode(
    record: Dict[str, Any],
    values: Optional[Sequence[Any]] = None,
    oob_min_bytes: int = OOB_MIN_BYTES,
) -> List[Any]:
    """A control *record* (plus a frame's *values*) as wire parts.

    Returns ``[u32 control length, control pickle, *tail buffers]``: a value
    of at least *oob_min_bytes* flat bytes stays its own buffer — copied
    neither through the pickler nor here — and whoever writes the parts
    copies each once.  Raises what the pickler raises for a value that
    cannot travel.
    """
    tail: List[Any] = []
    if values is not None:

        def place(tag: str, buffer: Any, meta: Any, length: int) -> Tuple[Any, ...]:
            tail.append(buffer)
            return ("oob", tag, meta, length)

        entries = place_values(values, oob_min_bytes, place, _inline_entry)
        record = dict(record, values=entries)
    control = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
    return [_CONTROL_LENGTH.pack(len(control)), control, *tail]


class _NoGlobals(pickle.Unpickler):
    """An unpickler for bytes a network peer chose: data, never code."""

    def find_class(self, module: str, name: str) -> Any:
        raise ProtocolError(
            f"control record names the global {module}.{name}; only plain "
            f"data is accepted from a network peer"
        )


#: opcode -> bytes of argument behind it: a count, or pickletools' negative
#: code for "newline-terminated" (-1) and the length-prefixed forms
_OPCODE_ARGUMENT = {
    ord(op.code): (op.arg.n if op.arg is not None else 0) for op in pickletools.opcodes
}
#: pickletools' TAKEN_FROM_ARGUMENT1 / 4 / 4U / 8U -> width of the prefix
_LENGTH_PREFIX = {-2: 1, -3: 4, -4: 4, -5: 8}
_STOP = ord(pickle.STOP)
_EXPLICIT_MEMO = {ord(pickle.PUT), ord(pickle.BINPUT), ord(pickle.LONG_BINPUT)}


def _check_allocations(control: memoryview) -> None:
    """Refuse a pickle that could allocate beyond its own length.

    Without globals an unpickler builds only data, but two opcode families
    size an allocation from a number the sender chose: ``PUT``/``BINPUT``/
    ``LONG_BINPUT`` grow the memo to an arbitrary index (the pickler's own
    ``MEMOIZE`` only ever appends), and the counted ``bytes``/``bytearray``
    opcodes allocate their declared length before reading it.  The text
    opcodes of protocol 0 are refused with them: no encoder of this layout
    emits one, and they cannot be skipped without being parsed.
    """
    at, end = 0, len(control)
    while at < end:
        opcode = control[at]
        argument = _OPCODE_ARGUMENT.get(opcode)
        if argument is None or argument == -1 or opcode in _EXPLICIT_MEMO:
            raise ProtocolError(f"control record uses pickle opcode 0x{opcode:02x}")
        at += 1
        if argument < 0:
            width = _LENGTH_PREFIX[argument]
            argument = width + int.from_bytes(control[at : at + width], "little")
        at += argument
        if opcode == _STOP:
            break
    if at != end:
        raise ProtocolError("control record is truncated or has trailing bytes")


@any_thread
def decode(payload: Any, trusted: bool) -> Tuple[Dict[str, Any], Optional[List[Any]]]:
    """Inverse of :func:`encode`: ``(record, values)``, values owned copies.

    *values* is None for a record sent without any.  Every length is checked
    against *payload*, bytes behind the last entry are refused, and whatever
    else goes wrong surfaces as :class:`~repro.errors.ProtocolError`.  See
    the module docstring for what *trusted* — a constant at each call site —
    selects.
    """
    try:
        view = memoryview(payload)
        end = view.nbytes
        if end < _CONTROL_LENGTH.size:
            raise ProtocolError(f"frame of {end} bytes is shorter than its length prefix")
        (control_length,) = _CONTROL_LENGTH.unpack_from(view, 0)
        offset = _CONTROL_LENGTH.size + control_length
        if offset > end:
            raise ProtocolError(
                f"control record of {control_length} bytes in a frame of {end}"
            )
        control = view[_CONTROL_LENGTH.size : offset]
        if trusted:
            record = pickle.loads(control)
        else:
            _check_allocations(control)
            record = _NoGlobals(io.BytesIO(control)).load()
        if not isinstance(record, dict):
            raise ProtocolError(f"control record is a {type(record).__name__}, not a dict")
        entries = record.pop("values", None)
        values = None
        if entries is not None:

            def fetch(entry: Any) -> Tuple[str, memoryview, Any]:
                nonlocal offset
                _kind, tag, meta, length = entry
                if type(length) is not int or not 0 <= length <= end - offset:
                    raise ProtocolError(
                        f"entry of {length!r} bytes with {end - offset} left in the frame"
                    )
                offset += length
                return tag, view[offset - length : offset], meta

            values = fetch_values(entries, fetch)
        if offset != end:
            raise ProtocolError(f"{end - offset} trailing bytes behind the last entry")
        return record, values
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc!r}") from exc


# --------------------------------------------------------------------------
# The pipe: the same layout behind an 8-byte length
# --------------------------------------------------------------------------


def pipe_message(parts: List[Any]) -> List[Any]:
    """*parts* as a pool pipe carries them: an 8-byte length in front."""
    size = payload_size(parts)
    prefix = PIPE_LENGTH.pack(size)
    if size < _ONE_WRITE_BYTES:
        return [b"".join((prefix, *parts))]
    return [prefix, *parts]


def _read(sock: socket.socket, size: int) -> bytearray:
    buffer = bytearray(size)
    view, got = memoryview(buffer), 0
    while got < size:
        count = sock.recv_into(view[got:])
        if not count:
            raise EOFError("the pipe's far end is closed")
        got += count
    return buffer


def read_pipe_message(sock: socket.socket) -> bytearray:
    """Read one :func:`pipe_message` from *sock*, waiting for all of it — for
    a pool child, which has nothing else to do meanwhile.  The master reads
    its end incrementally (:class:`repro.net.endpoint.Endpoint`)."""
    (size,) = PIPE_LENGTH.unpack(_read(sock, PIPE_LENGTH.size))
    return _read(sock, size)


# --------------------------------------------------------------------------
# Frames in flight
# --------------------------------------------------------------------------


class Frame:
    """One DATA frame, from packing to delivery: what its RESULT is checked
    against, and what its sender keeps with it meanwhile."""

    __slots__ = ("seq", "was_batch", "count", "trace", "parts", "size", "slots", "reply")

    def __init__(
        self, seq: int, was_batch: bool, count: int, trace: Optional[Dict[str, Any]]
    ) -> None:
        self.seq = seq
        #: the stream element was a Batch (else one bare value)
        self.was_batch = was_batch
        self.count = count
        #: the sender's own trace dict (the wire copy was packed before
        #: ``serialize_s`` was recorded, so this one stays authoritative)
        self.trace = trace
        #: the packed message, until it is handed to a socket
        self.parts: Optional[List[Any]] = None
        #: bytes of the message before its transport's framing
        self.size = 0
        #: shared-memory ring slots the frame owns (``transport="shm"`` pools)
        self.slots: Sequence[int] = ()
        #: ``(ok, values)`` — or ``(False, error)`` — once answered, for a
        #: sender that delivers in another order than answers arrive (a pool)
        self.reply: Optional[Tuple[bool, Any]] = None

    def unwrap(self, values: List[Any]) -> Any:
        """The stream element a result's *values* stand for."""
        return Batch(values) if self.was_batch else values[0]


def claim(frames: Deque[Any], record: Dict[str, Any], values: Optional[List[Any]]) -> Any:
    """Pop the frame a RESULT *record* answers off the head of *frames*.

    A worker answers in the order it was asked, so the record must name the
    oldest frame in flight and, when ``ok``, carry as many values as it did.
    Of the echoed trace only ``exec_s`` — a duration the worker measured —
    is taken, into the frame's own trace.  Anything else is a
    :class:`~repro.errors.ProtocolError` and leaves *frames* untouched.
    """
    seq, ok = record.get("seq"), record.get("ok")
    if record.get("kind") != RESULT or not frames or seq != frames[0].seq:
        expected = frames[0].seq if frames else "none in flight"
        raise ProtocolError(f"result for frame {seq!r} out of turn (expected {expected})")
    frame = frames[0]
    if type(ok) is not bool:
        raise ProtocolError(f"result for frame {seq} has ok={ok!r}")
    if ok:
        if values is None or len(values) != frame.count:
            got = "no" if values is None else len(values)
            raise ProtocolError(
                f"frame {seq} carried {frame.count} value(s), its result {got}"
            )
        if frame.trace is not None:
            echo = record.get("trace")
            exec_s = echo.get("exec_s", 0.0) if isinstance(echo, dict) else 0.0
            if not (isinstance(exec_s, (int, float)) and 0 <= exec_s < float("inf")):
                raise ProtocolError(f"result for frame {seq} has exec_s={exec_s!r}")
            frame.trace["exec_s"] = float(exec_s)
    return frames.popleft()
