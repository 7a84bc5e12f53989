"""One end of a worker's byte stream, and the framings that cut it into messages.

In the paper a worker is one thing to the master: a duplex channel behind a
``Limiter`` on a ``StreamLender`` sub-stream (Fig. 7 and 9), whether the far
end is a process on this machine or a volunteer across a network.
:class:`Endpoint` is that one thing at the byte level — a non-blocking socket
on an event loop's selector with an **outbox** (a write never waits: a peer
busy writing a large result of its own can always be read), an **incremental
read** (one ``recv_into`` per readable event, never a wait for the rest of a
message; what is whole is *filed* on :attr:`Endpoint.inbox`, and so is the way
the stream ended, as one final exception) and the **frames in flight**
(:func:`data_frame` is the only place a DATA frame is packed,
:meth:`Endpoint.claim` the only one a RESULT is checked against one).

How bytes become messages is data, a *framing* object: ``header(view)`` →
``(header bytes, payload bytes)``, or None while incomplete, raising
:class:`~repro.errors.ProtocolError` for what must be refused *before* a
payload buffer exists; ``frame(payload, write)`` → the message a complete
frame amounts to, if any; ``refusal()`` → what a peer that broke the framing
is sent; ``wrap(parts)`` → the buffers that carry a message out.  There are
three: :data:`PIPE` (the 8-byte length prefix of a pool child's pipe),
:class:`WS` (RFC 6455, either side) and :data:`HTTP_HEAD` (the upgrade that
precedes :class:`WS` on the same socket).  The master's pool children, its
volunteers and the volunteer process's own end of the websocket are all
endpoints: one outbox, one read path, one RFC 6455 parser.

The websocket data path touches every payload byte once per direction, plus
the mask RFC 6455 demands of clients.  Sending: the codec hands ``[u32 length,
control pickle, *the values' own buffers]`` over as parts,
:func:`encode_ws_frame` joins header and parts into the one ``bytearray`` that
goes to the socket, and a volunteer's frame is masked in that buffer.
Receiving: a payload that is not already whole in the staging buffer is
received straight into the ``bytearray`` it is unmasked in, and the codec
slices ``memoryview`` objects out of it, so the owned copy ``oob_unpack`` makes
for the user function is the only other one.  The two directions mask with
two kernels: a volunteer with stdlib-only stride-4 lanes
(:func:`_apply_mask`), so a freshly spawned one never imports numpy; the
master, the only side that receives masked frames, with one in-place numpy
XOR over 32-bit words (:func:`_unmask`), the cheaper by ~40x.
"""

from __future__ import annotations

import functools
import os
import socket
import struct
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence, Set, Tuple

from ..analysis.annotations import loop_only
from ..errors import ProtocolError
from . import wire
from .serialization import Batch

__all__ = [
    "Endpoint",
    "HTTP_HEAD",
    "PIPE",
    "WS",
    "close_inherited",
    "close_owned",
    "data_frame",
    "encode_ws_frame",
    "own_socket",
]

#: staging buffer per endpoint: headers and messages smaller than this are
#: parsed out of it, several per ``recv_into`` when they arrive together
STAGING_BYTES = 1 << 16

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Refuse messages larger than this (a corrupted length prefix must fail
#: loudly, not allocate gigabytes).
DEFAULT_MAX_FRAME = 256 * 1024 * 1024

#: This process's open endpoint and listener sockets.  A forked child (a
#: pool's worker) closes its copies first thing (:func:`close_inherited`): a
#: peer reads EOF only once *every* copy is closed, so a copy left in a child
#: would keep a volunteer's connection, a listener or a sibling's pipe open.
_OWNED: Set[socket.socket] = set()
own_socket = _OWNED.add


def close_owned(sock: socket.socket) -> None:
    """Close a socket :func:`own_socket` counted, and stop counting it."""
    _OWNED.discard(sock)
    sock.close()


def close_inherited() -> None:
    """In a freshly forked child: close the copies of the parent's sockets."""
    while _OWNED:
        _OWNED.pop().close()


@functools.lru_cache(maxsize=256)
def _xor_table(key_byte: int) -> bytes:
    """The 256-entry ``bytes.translate`` table XOR-ing with *key_byte*."""
    return bytes(value ^ key_byte for value in range(256))


def _apply_mask(buffer: bytearray, key: bytes, start: int = 0) -> None:
    """XOR ``buffer[start:]`` in place with the repeating 4-byte *key*: the
    client's kernel, which masks what a volunteer sends.

    Byte ``start + i`` meets ``key[i % 4]``, so the bytes of one key byte
    form a stride-4 lane: each lane is sliced out, run through that key
    byte's translate table and assigned back — three C loops over a quarter
    of the buffer, no per-byte Python and no whole-buffer temporary, against
    the two big-integer conversions and a frame-sized repeated key of the usual
    ``int.from_bytes`` XOR (about 4x slower).  It stays stdlib-only because a
    spawned volunteer must not pay numpy's import (~170 ms with two starting
    at once on two cores) before its hello; the tables are built on first
    use, so importing this module builds none.
    """
    for lane in range(4):
        if key[lane]:
            index = slice(start + lane, None, 4)
            buffer[index] = buffer[index].translate(_xor_table(key[lane]))


def _unmask(payload: bytearray, key: bytes) -> None:
    """XOR *payload* in place with the repeating 4-byte *key*: the server's
    kernel, which unmasks what a volunteer sent.

    Only the master receives masked frames (a client refuses them), so this
    kernel may use numpy: the payload is XOR-ed in place as native 32-bit
    words against the key read as one — a single vectorised pass, ~40x the
    lanes' speed, with no temporary — and the at most three tail bytes by
    hand.  numpy is imported here, on the first masked frame, never when this
    module is, so a volunteer that imports this module and masks with
    :func:`_apply_mask` stays numpy-free.
    """
    import numpy

    count = len(payload) // 4
    if count:
        words = numpy.frombuffer(payload, numpy.uint32, count)
        words ^= numpy.frombuffer(key, numpy.uint32)
    for index in range(4 * count, len(payload)):
        payload[index] ^= key[index & 3]


def encode_ws_frame(opcode: int, payload: Any, mask: bool) -> bytearray:
    """Encode one unfragmented websocket frame (FIN set).

    *payload* is one bytes-like object or a list of them (the parts
    :func:`repro.net.wire.encode` hands over): header and parts are joined into
    the frame buffer once, and a masked frame is XOR-ed in that buffer.
    """
    parts = payload if isinstance(payload, (list, tuple)) else (payload,)
    length = wire.payload_size(parts)
    header = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask else 0
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack("!H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack("!Q", length)
    key = os.urandom(4) if mask else b""
    header += key
    frame = bytearray().join((header, *parts))
    if mask:
        _apply_mask(frame, key, len(header))
    return frame


Write = Callable[[Sequence[Any]], None]


class _Plain:
    """A framing whose every frame is a message, and whose peer is told
    nothing when it breaks it."""

    def frame(self, payload: bytearray, write: Write) -> bytearray:
        return payload

    def refusal(self) -> Sequence[Any]:
        return ()


class _Pipe(_Plain):
    """A pool pipe's framing: the codec's layout behind an 8-byte length."""

    def header(self, view: memoryview) -> Optional[Tuple[int, int]]:
        if len(view) < wire.PIPE_LENGTH.size:
            return None
        return wire.PIPE_LENGTH.size, wire.PIPE_LENGTH.unpack_from(view)[0]

    wrap = staticmethod(wire.pipe_message)


class _HttpHead(_Plain):
    """An HTTP request or response head: everything up to the blank line."""

    #: a head without its blank line by now is not an upgrade request
    LIMIT = 16 * 1024

    def header(self, view: memoryview) -> Optional[Tuple[int, int]]:
        end = bytes(view[: self.LIMIT]).find(b"\r\n\r\n")
        if end >= 0:
            return 0, end + 4
        if len(view) >= self.LIMIT:
            raise ProtocolError(f"no end of the HTTP head within {self.LIMIT} bytes")
        return None


#: the framings that keep no state between frames, shared by every endpoint
PIPE = _Pipe()
HTTP_HEAD = _HttpHead()


class WS:
    """RFC 6455 framing of one connection, either side (*client_side* masks
    what it sends and accepts only unmasked frames; a server the reverse).

    *max_frame* bounds a whole message, fragments included, and may be
    changed while the connection lives (the gateway raises it once a peer has
    said a valid hello).
    """

    def __init__(self, client_side: bool, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.client_side = client_side
        self.max_frame = max_frame
        self.pings_sent = 0
        self.pings_received = 0
        self.pongs_received = 0
        #: the status code of the peer's close frame, once it sent one
        self.close_code: Optional[int] = None
        self._close_sent = False
        self._fragments: List[bytearray] = []
        self._fragment_bytes = 0
        # the frame whose payload is arriving: FIN, opcode, mask key
        self._fin, self._opcode, self._key = True, OP_BINARY, b""

    # -- receiving ----------------------------------------------------------
    def header(self, view: memoryview) -> Optional[Tuple[int, int]]:
        """Every refusal happens here, before a payload byte is stored: a
        frame whose mask bit is the wrong way round (§5.1: clients mask,
        servers do not), a control frame that is fragmented or longer than
        125 bytes (§5.5), a continuation out of place, and a message that
        would outgrow ``max_frame`` whole or in pieces."""
        if len(view) < 2:
            return None
        fin, opcode = bool(view[0] & 0x80), view[0] & 0x0F
        has_key, length = bool(view[1] & 0x80), view[1] & 0x7F
        if has_key == self.client_side:
            got, wanted = ("a masked", "unmasked") if has_key else ("an unmasked", "masked")
            raise ProtocolError(
                f"received {got} websocket frame on the side that accepts only "
                f"{wanted} ones (RFC 6455 §5.1)"
            )
        size = 2
        if opcode & 0x8:
            if length > 125 or not fin:
                raise ProtocolError(
                    f"websocket control frame 0x{opcode:x} is fragmented or longer "
                    f"than 125 bytes"
                )
        else:
            if length >= 126:
                size = 4 if length == 126 else 10
                if len(view) < size:
                    return None
                (length,) = struct.unpack("!H" if size == 4 else "!Q", view[2:size])
            if opcode in (OP_BINARY, OP_TEXT, OP_CONT) and (opcode == OP_CONT) != bool(
                self._fragments
            ):
                raise ProtocolError(
                    "continuation frame without a start"
                    if opcode == OP_CONT
                    else "data frame inside a fragmented message"
                )
            if length > self.max_frame - self._fragment_bytes:
                raise ProtocolError(
                    f"websocket message of {self._fragment_bytes + length} bytes "
                    f"exceeds the {self.max_frame} byte limit"
                )
        if has_key:
            if len(view) < size + 4:
                return None
            self._key = bytes(view[size : size + 4])
            size += 4
        else:
            self._key = b""
        self._fin, self._opcode = fin, opcode
        return size, length

    def frame(self, payload: bytearray, write: Write) -> Any:
        if self._key:
            _unmask(payload, self._key)
        opcode = self._opcode
        if opcode == OP_PING:
            self.pings_received += 1
            write(self.wrap(payload, OP_PONG))
        elif opcode == OP_PONG:
            self.pongs_received += 1
        elif opcode == OP_CLOSE:
            if len(payload) >= 2:
                self.close_code = int.from_bytes(payload[:2], "big")
            write(self.close())
            return EOFError(f"the peer closed the websocket (code {self.close_code})")
        elif opcode in (OP_BINARY, OP_TEXT, OP_CONT):
            if self._fin and not self._fragments:
                return payload  # the common case: one unfragmented frame
            self._fragments.append(payload)
            self._fragment_bytes += len(payload)
            if self._fin:
                message = bytearray().join(self._fragments)
                self._fragments, self._fragment_bytes = [], 0
                return message
        # unknown opcodes are ignored (forward compatibility)
        return None

    # -- sending ------------------------------------------------------------
    def wrap(self, parts: Any, opcode: int = OP_BINARY) -> List[bytearray]:
        """One message (a bytes-like or the parts :func:`repro.net.wire.encode`
        returns) as one frame: the parts are copied once, into the frame."""
        return [encode_ws_frame(opcode, parts, mask=self.client_side)]

    def ping(self) -> List[bytearray]:
        self.pings_sent += 1
        return self.wrap(b"hb", OP_PING)

    def refusal(self) -> List[bytearray]:
        """What a peer that broke the framing is told: close code 1002."""
        return self.close(1002)

    def close(self, code: int = 1000) -> List[bytearray]:
        """The close frame, once: a second call has nothing left to send."""
        if self._close_sent:
            return []
        self._close_sent = True
        return self.wrap(struct.pack("!H", code), OP_CLOSE)


def data_frame(
    value: Any,
    seq: int,
    framing: Any,
    obs: Optional[Any],
    label: str,
    stage: Optional[Callable[[List[Any]], List[Any]]] = None,
) -> wire.Frame:
    """Pack one stream element — a value, or a :class:`Batch` of them — as
    DATA frame *seq*, ready for :meth:`Endpoint.send`.

    Every submission is a frame: an un-batched value travels as a frame of
    one, which :meth:`~repro.net.wire.Frame.unwrap` undoes.  *obs* (the owning
    map's observability plane, or None) traces it under transport *label*.
    *stage* moves the values somewhere else first and returns what travels in
    their place (a pool's shared-memory ring: control entries).  Raises what
    the pickler raises for a value that cannot travel.
    """
    was_batch = isinstance(value, Batch)
    values = list(value.values) if was_batch else [value]
    trace = obs.begin_frame(label, values=len(values)) if obs is not None else None
    frame = wire.Frame(seq, was_batch, len(values), trace)
    record = {"kind": wire.DATA, "seq": seq}
    if trace is not None:
        # The trace dict rides the record; the worker echoes it back in the
        # RESULT record with exec_s added.
        record["trace"] = trace
    parts = wire.encode(record, values if stage is None else stage(values))
    frame.size = wire.payload_size(parts)
    frame.parts = framing.wrap(parts)
    if trace is not None:
        obs.end_serialize(trace)
    return frame


class Endpoint:
    """One end of a worker's byte stream: socket, outbox, read path, frames
    in flight (see the module docstring).

    *sock* is a connected stream socket, owned from here on:
    :meth:`close` closes it.  *process* is the worker process at the far end
    when this master started it.  Off a loop (a bare pool that no scheduler
    reads) the owner calls :meth:`read` and :meth:`flush` itself when
    ``select`` says so; :meth:`watch` puts both on an event loop instead.
    """

    def __init__(self, sock: socket.socket, framing: Any, process: Any = None) -> None:
        sock.setblocking(False)
        own_socket(sock)
        self.sock = sock
        self.framing = framing
        self.process = process
        #: filed messages, oldest first; the last one may be the exception
        #: the stream ended with, after which nothing more is read
        self.inbox: Deque[Any] = deque()
        #: buffers the socket has not taken yet
        self.outbox: Deque[Any] = deque()
        #: DATA frames sent and not answered yet, oldest first — what each
        #: RESULT is checked against
        self.frames: Deque[wire.Frame] = deque()
        self.seq = 0
        #: called whenever bytes arrive (a heartbeat monitor's ``touch``)
        self.touch: Optional[Callable[[], None]] = None
        #: queued for a turn in its owner's dispatch order
        #: (:class:`~repro.sched.sources.EndpointSource`)
        self.has_turn = False
        self.closed = False
        #: the read side ended; the last thing filed says how
        self.finished = False
        self._loop: Optional[Any] = None
        self._on_filed: Optional[Callable[["Endpoint"], None]] = None
        self._writing = False  # on the selector for writability
        self._staging = memoryview(bytearray(STAGING_BYTES))
        self._staged = 0  # bytes of _staging not parsed yet
        self._payload: Optional[bytearray] = None  # arriving off the socket
        self._filled = 0

    def fileno(self) -> int:
        return self.sock.fileno()

    # ------------------------------------------------------------- the loop
    def watch(self, loop: Any, on_filed: Callable[["Endpoint"], None]) -> None:
        """Read and flush from *loop* until :meth:`close`; ``on_filed(self)``
        runs on it after every read that filed something."""
        self._loop, self._on_filed = loop, on_filed
        if not self.finished:
            loop.add_reader(self.sock, self._on_readable)
        self.write(())

    @loop_only
    def _on_readable(self) -> None:
        if self.read():
            self._on_filed(self)

    @loop_only
    def _on_writable(self) -> None:
        if self.flush():
            self._writing = False
            self._loop.remove_writer(self.sock)

    # -------------------------------------------------------------- sending
    def write(self, buffers: Sequence[Any]) -> None:
        """Queue *buffers* behind what is already waiting and send what the
        socket takes now.  Never waits and never raises: a dead socket drops
        its outbox, and the read side reports the death."""
        self.outbox.extend(buffers)
        if not self.flush() and self._loop is not None and not self._writing:
            self._writing = True
            self._loop.add_writer(self.sock, self._on_writable)

    def flush(self) -> bool:
        """Write what the socket takes without blocking; True once the outbox
        is empty.

        This end never waits on a write: a peer busy writing a large result
        does not read, and waiting for it while it waits for us to read would
        deadlock.  The rest goes when the socket is writable again.
        """
        outbox = self.outbox
        while outbox:
            data = outbox[0]
            try:
                sent = self.sock.send(data, socket.MSG_DONTWAIT)
            except (BlockingIOError, InterruptedError):
                return False
            except OSError:
                # The peer is gone (or this end closed); the read side says so.
                outbox.clear()
                return True
            if sent < len(data):
                outbox[0] = memoryview(data)[sent:]
                return False
            outbox.popleft()
        return True

    def send(self, frame: wire.Frame) -> None:
        """Put a packed DATA *frame* in flight."""
        self.frames.append(frame)
        parts, frame.parts = frame.parts, None
        self.write(parts)

    def send_frame(self, value: Any, obs: Optional[Any], label: str) -> wire.Frame:
        """Pack *value* as this endpoint's next DATA frame and send it."""
        self.seq += 1
        frame = data_frame(value, self.seq, self.framing, obs, label)
        self.send(frame)
        return frame

    def claim(self, record: Any, values: Optional[List[Any]]) -> wire.Frame:
        """The frame in flight a decoded RESULT answers
        (:func:`repro.net.wire.claim`): a worker answers in turn."""
        return wire.claim(self.frames, record, values)

    # ------------------------------------------------------------ receiving
    def read(self) -> bool:
        """One ``recv_into`` of what the socket holds; True when that filed
        anything.  Returns at once whatever arrived: half a message stays
        half a message until the socket is readable again."""
        if self.finished:
            return False
        payload = self._payload
        if payload is not None:
            target = memoryview(payload)[self._filled :]
        else:
            target = self._staging[self._staged :]
        try:
            count = self.sock.recv_into(target)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError as exc:
            self._finish(EOFError(f"the connection failed: {exc!r}"))
            return True
        finally:
            # a payload is unmasked in place, which a live view of it forbids
            target.release()
        if not count:
            self._finish(EOFError("the far end is closed"))
            return True
        if self.touch is not None:
            self.touch()
        before = len(self.inbox)
        try:
            if payload is not None:
                self._filled += count
                if self._filled == len(payload):
                    self._payload = None
                    self._file(payload)
            else:
                self._staged += count
                self._parse()
        except ProtocolError as exc:
            self.write(self.framing.refusal())
            self._finish(exc)
        return len(self.inbox) > before

    def _parse(self) -> None:
        """File every frame the staging buffer holds whole; leave an
        incomplete header at its front, and send an incomplete payload on to
        its own buffer."""
        view, at, end = self._staging, 0, self._staged
        while at < end and not self.finished:
            parsed = self.framing.header(view[at:end])
            if parsed is None:
                break
            start = at + parsed[0]
            stop = start + parsed[1]
            if stop > end:
                # Allocated only now that the header passed every check; the
                # rest arrives straight off the socket.
                self._payload = bytearray(parsed[1])
                self._payload[: end - start] = view[start:end]
                self._filled = end - start
                at = end
                break
            self._file(bytearray(view[start:stop]))
            at = stop
        if at < end:
            view[: end - at] = bytes(view[at:end])
        self._staged = end - at

    def _file(self, payload: bytearray) -> None:
        message = self.framing.frame(payload, self.write)
        if isinstance(message, Exception):
            self._finish(message)
        elif message is not None:
            self.inbox.append(message)

    def _finish(self, reason: Exception) -> None:
        if not self.finished:
            self.finished = True
            self.inbox.append(reason)
            if self._loop is not None and not self.closed:
                self._loop.remove_reader(self.sock)

    def fail(self, reason: Exception) -> None:
        """End the read side from outside (a heartbeat's verdict): *reason* is
        filed behind what already arrived, as an end of file would be."""
        if not self.finished:
            self._finish(reason)
            if self._on_filed is not None:
                self._on_filed(self)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Take the socket off the loop and close it (idempotent); what the
        outbox still held is dropped."""
        if self.closed:
            return
        self.closed = self.finished = True
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.remove_reader(self.sock)
            loop.remove_writer(self.sock)
        self.outbox.clear()
        close_owned(self.sock)
