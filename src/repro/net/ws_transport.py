"""Real websocket volunteer transport on the asyncio event loop.

Everything else under ``repro.net`` simulates the network; this module is the
wire.  It binds an actual RFC 6455 websocket server (stdlib-only: the
handshake is HTTP + SHA-1, frames are length-prefixed with client-side
masking, heartbeats are real ping/pong control frames) to the PR-4 event-loop
primitives so **external worker processes attach to a live master over
TCP** — the paper's deployment story (volunteers on the same LAN or VPN),
minus the browser:

* :class:`WsConnection` — one established websocket, either side, on an
  ``asyncio`` stream pair.  Sends are synchronous buffered writes (safe on
  the loop thread); receives are awaited, with ping/pong answered inline.
* The payload of each websocket binary frame is one frame of
  :mod:`repro.net.wire`, the codec every transport shares: a control record
  followed by the out-of-band buffers of its large ``bytes``/array values.
  One DATA frame carries one stream value or one
  :class:`~repro.net.serialization.Batch` of them, answered in order by one
  RESULT frame.  (:func:`pack_wire_parts`, :func:`pack_wire_frame` and
  :func:`unpack_wire_frame` are that codec under the names this module had
  for it.)
* :class:`LoopClock` — a real-clock facade (``now`` + ``call_later``) over
  the asyncio loop, so the unchanged
  :class:`~repro.net.heartbeat.HeartbeatMonitor` drives membership on wall
  -clock time: pings every *interval*, crash-stop suspicion after *timeout*
  of silence.
* :class:`WsVolunteerGateway` — the server, registered on an
  :class:`~repro.sched.event_loop.EventLoopScheduler` as an
  :class:`~repro.sched.sources.EventSource`.  Each volunteer that completes
  the hello/welcome exchange is attached to the
  :class:`~repro.core.distributed_map.DistributedMap` as an ordinary
  channel worker: results flow back through a thread-safe
  :class:`~repro.sched.sources.PushablePort`, and a volunteer that vanishes
  mid-frame (socket reset, SIGKILL, heartbeat timeout) fails its sub-stream
  so the lender re-lends its borrowed values and the sharded master
  rebalances — the existing crash-stop paths, now triggered by a real wire.

The data path touches every payload byte once per direction, plus the mask
RFC 6455 demands of clients.  Sending: the codec hands ``[u32 length,
control pickle, *the values' own buffers]`` to the connection as parts,
:func:`encode_ws_frame` joins header and parts into the one ``bytearray``
that goes to the socket, and a volunteer's frame is masked in that buffer.
Receiving: one frame's payload is read in one piece (the stream readers are
created with :data:`READ_LIMIT`, so a tile-sized frame lands without the
transport being paused and resumed), a masked payload moves once into the
``bytearray`` it is unmasked in, and the codec slices ``memoryview``
objects out of the payload, so the owned copy ``oob_unpack`` makes for the
user function is the only other one.

The mask itself is four stride-4 "lanes" — bytes ``i, i+4, i+8, …`` all meet
key byte ``i`` — each sliced out, run through a 256-entry
``bytes.translate`` table and assigned back: three C loops over a quarter of
the frame, against the two big-integer conversions and a frame-sized
repeated key of the usual ``int.from_bytes`` XOR (about 4x slower).  numpy
would XOR faster still, but its import costs every freshly spawned volunteer
~130 ms of start-up, more than the mask costs in hundreds of frames; the
tables are built on first use, so importing this module builds none.

Trust model: a volunteer is somebody else's machine.  It downloads the
master's code and sends back *data* (paper Fig. 2), so the two directions of
this wire are not alike.  What a volunteer sends — its hello, every RESULT —
the gateway decodes with ``wire.decode(payload, trusted=False)``: lengths
checked against the frame, and a control record read by an unpickler that
never resolves a global.  A result value may therefore be plain data
(``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``, ``bytearray``
and ``list``/``tuple``/``dict``/``set``/``frozenset`` of those), or — at the
top level of the frame — a contiguous ndarray or a large bytes-like, which
travels out of band as raw bytes plus a dtype string and a shape.  Anything
else (a class instance, a numpy scalar, an array nested inside a list) is
refused like a forged frame: close code 1002, a ``frame_refused`` trace
event, that volunteer's sub-stream failed and its values re-lent.  Every
RESULT is also checked against the frame it answers (in turn, as many values
as were sent).  What the *master* sends, a volunteer reads with plain pickle
— the welcome may carry the processing function itself, and a volunteer
runs the master's code by design, exactly as the paper's volunteers execute
the bundle they download.  So: joining a master means trusting it; serving
volunteers does not mean trusting them with more than wrong answers.
"""

from __future__ import annotations

import asyncio
import base64
import functools
import hashlib
import itertools
import os
import struct
import threading
from collections import deque
from contextlib import suppress
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple
from urllib.parse import urlsplit

from ..analysis.annotations import any_thread, loop_only
from ..errors import ConnectionClosed, PandoError, ProtocolError, TaskError
from ..pullstream.duplex import Duplex
from ..pullstream.protocol import DONE, End, is_error
from ..pullstream.pushable import Pushable
from ..pullstream.sinks import eager_pump
from ..sched.sources import EventSource, PushablePort
from .heartbeat import DEFAULT_INTERVAL, DEFAULT_TIMEOUT, HeartbeatMonitor
from . import wire
from .serialization import OOB_MIN_BYTES, Batch

__all__ = [
    "LoopClock",
    "WsConnection",
    "WsVolunteerGateway",
    "connect_websocket",
    "pack_wire_frame",
    "pack_wire_parts",
    "unpack_wire_frame",
    "parse_ws_url",
    "WIRE_VERSION",
]

# --------------------------------------------------------------------------
# RFC 6455 essentials
# --------------------------------------------------------------------------

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Refuse frames larger than this (a corrupted length prefix must fail
#: loudly, not allocate gigabytes).
DEFAULT_MAX_FRAME = 256 * 1024 * 1024

#: ``StreamReader`` limit of both ends.  The reader pauses the transport at
#: twice its limit, and asyncio's 64 KiB default turns one 512 KiB tile frame
#: into several pause/resume round trips through the selector; with 1 MiB,
#: frames up to 2 MiB land without one.
READ_LIMIT = 1 << 20

#: Bump when the control-record schema changes incompatibly.
WIRE_VERSION = 1

# Control-record kinds of the volunteer session around the codec's DATA and
# RESULT.
HELLO = "hello"
WELCOME = "welcome"
END = "end"
BYE = "bye"

#: worker ids of volunteers that announce no name: ``ws-1``, ``ws-2``, ...
NAME_PREFIX = "ws"

#: how long :meth:`WsVolunteerGateway.stop` waits for in-flight byes before
#: force-closing
STOP_GRACE = 0.5


def _accept_key(key: str) -> str:
    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


@functools.lru_cache(maxsize=256)
def _xor_table(key_byte: int) -> bytes:
    """The 256-entry ``bytes.translate`` table XOR-ing with *key_byte*."""
    return bytes(value ^ key_byte for value in range(256))


def _apply_mask(buffer: bytearray, key: bytes, start: int = 0) -> None:
    """XOR ``buffer[start:]`` in place with the repeating 4-byte *key*.

    Byte ``start + i`` meets ``key[i % 4]``, so the bytes of one key byte
    form a stride-4 lane: each lane is sliced out, run through that key
    byte's translate table and assigned back — three C loops over a quarter
    of the buffer, no per-byte Python and no whole-buffer temporary.
    """
    for lane in range(4):
        if key[lane]:
            index = slice(start + lane, None, 4)
            buffer[index] = buffer[index].translate(_xor_table(key[lane]))


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


async def _read_ws_frame(
    reader: asyncio.StreamReader, max_frame: int, masked: bool
) -> Tuple[bool, int, Any]:
    """Read one frame; returns ``(fin, opcode, unmasked payload)``.

    Every refusal happens on the header, before a payload byte is read: a
    data frame longer than *max_frame*, a control frame that is fragmented
    or longer than 125 bytes (RFC 6455 §5.5), and a frame whose mask bit is
    not *masked* (§5.1: clients mask, servers do not, so a server reads
    with ``masked=True``).  A masked payload is unmasked in its own buffer.
    """
    head = await reader.readexactly(2)
    fin = bool(head[0] & 0x80)
    opcode = head[0] & 0x0F
    has_key = bool(head[1] & 0x80)
    length = head[1] & 0x7F
    if has_key != masked:
        got, wanted = ("a masked", "unmasked") if has_key else ("an unmasked", "masked")
        raise ProtocolError(
            f"received {got} websocket frame on the side that accepts only "
            f"{wanted} ones (RFC 6455 §5.1)"
        )
    if opcode & 0x8:
        if length > 125 or not fin:
            raise ProtocolError(
                f"websocket control frame 0x{opcode:x} is fragmented or longer "
                f"than 125 bytes"
            )
    elif length == 126:
        (length,) = struct.unpack("!H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack("!Q", await reader.readexactly(8))
    if length > max_frame:
        raise ProtocolError(
            f"websocket frame of {length} bytes exceeds the {max_frame} byte limit"
        )
    key = await reader.readexactly(4) if has_key else None
    payload = await reader.readexactly(length) if length else b""
    if key is not None and length:
        payload = bytearray(payload)
        _apply_mask(payload, key)
    return fin, opcode, payload


async def server_handshake(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, timeout: float = 10.0
) -> Dict[str, str]:
    """Answer the HTTP upgrade request; returns the request headers."""
    request = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
    lines = request.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    key = headers.get("sec-websocket-key")
    if (
        "websocket" not in headers.get("upgrade", "").lower()
        or not lines[0].startswith("GET ")
        or key is None
    ):
        writer.write(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n")
        raise ProtocolError(f"not a websocket upgrade request: {lines[0]!r}")
    writer.write(
        (
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {_accept_key(key)}\r\n"
            "\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    return headers


async def client_handshake(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    host: str,
    path: str = "/",
    timeout: float = 10.0,
) -> None:
    """Send the HTTP upgrade request and validate the 101 response."""
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    writer.write(
        (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    response = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
    lines = response.decode("latin-1").split("\r\n")
    if " 101 " not in lines[0] + " ":
        raise ProtocolError(f"websocket upgrade refused: {lines[0]!r}")
    accept = None
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep and name.strip().lower() == "sec-websocket-accept":
            accept = value.strip()
    if accept != _accept_key(key):
        raise ProtocolError("websocket upgrade returned a bad Sec-WebSocket-Accept")


def parse_ws_url(url: str) -> Tuple[str, int, str]:
    """Split a ``ws://host:port/path`` URL into ``(host, port, path)``."""
    parts = urlsplit(url)
    if parts.scheme != "ws":
        raise PandoError(f"unsupported url {url!r}: only ws:// is implemented")
    if not parts.hostname:
        raise PandoError(f"url {url!r} has no host")
    return parts.hostname, parts.port or 80, parts.path or "/"


# --------------------------------------------------------------------------
# The codec under this module's names for it
# --------------------------------------------------------------------------

pack_wire_parts = wire.encode


def pack_wire_frame(
    record: Dict[str, Any],
    values: Optional[List[Any]] = None,
    oob_min_bytes: int = OOB_MIN_BYTES,
) -> bytes:
    """:func:`repro.net.wire.encode` joined into one contiguous wire frame."""
    return b"".join(wire.encode(record, values, oob_min_bytes))


def unpack_wire_frame(payload: Any) -> Dict[str, Any]:
    """:func:`repro.net.wire.decode` as the gateway runs it (no globals),
    with the values back under the record's ``"values"`` key."""
    record, values = wire.decode(payload, trusted=False)
    if values is not None:
        record["values"] = values
    return record


# --------------------------------------------------------------------------
# One established websocket
# --------------------------------------------------------------------------


class WsConnection:
    """One websocket on an asyncio stream pair (either side of the wire).

    Sends are plain buffered ``StreamWriter.write`` calls — safe to issue
    synchronously from the dispatch thread, with back-pressure provided at
    the protocol level by the :class:`~repro.core.limiter.Limiter` window
    (at most *window* frames are ever un-answered).  :meth:`recv` awaits
    the next data message, answering pings and counting pongs on the way;
    every received frame also notifies the traffic listener, which is how
    the heartbeat monitor's ``touch`` sees data frames as liveness proof.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client_side: bool,
        peer: str = "?",
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._client_side = client_side
        self.peer = peer
        self.max_frame = max_frame
        self.closed = False
        self._close_sent = False
        self._fragments: List[Any] = []
        self._on_traffic: Optional[Callable[[], None]] = None
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.pings_sent = 0
        self.pings_received = 0
        self.pongs_received = 0

    # -- sending (synchronous, buffered) -----------------------------------
    def _write_frame(self, opcode: int, payload: Any) -> None:
        if self.closed or self._writer.is_closing():
            raise ConnectionClosed(f"websocket to {self.peer} is closed")
        frame = encode_ws_frame(opcode, payload, mask=self._client_side)
        # A view, so a partial socket write keeps a slice of this buffer
        # instead of copying the unsent tail.
        self._writer.write(memoryview(frame))
        self.frames_sent += 1
        self.bytes_sent += len(frame)

    def send_bytes(self, payload: Any) -> None:
        """Send one binary message.

        *payload* is a packed wire frame, or the list of parts
        :func:`repro.net.wire.encode` returns — the parts are copied once,
        straight into the websocket frame.
        """
        self._write_frame(OP_BINARY, payload)

    def send_ping(self) -> None:
        self._write_frame(OP_PING, b"hb")
        self.pings_sent += 1

    def send_close(self, code: int = 1000) -> None:
        if self._close_sent:
            return
        self._close_sent = True
        with suppress(Exception):
            self._write_frame(OP_CLOSE, struct.pack("!H", code))

    async def drain(self) -> None:
        """Await the transport's write buffer (volunteer-side flow control)."""
        await self._writer.drain()

    # -- receiving ----------------------------------------------------------
    def on_traffic(self, listener: Optional[Callable[[], None]]) -> None:
        """Call *listener* after every received frame (heartbeat ``touch``)."""
        self._on_traffic = listener

    async def recv(self) -> Any:
        """Next data message (a bytes-like), or ``None`` once finished.

        ``None`` covers every way a websocket ends: a clean CLOSE frame, an
        EOF, or a reset — the callers distinguish graceful from crash-stop
        at the protocol layer (a ``bye`` record precedes a clean close).
        A peer that breaks the framing rules — wrong mask direction, an
        oversized or fragmented control frame, a message growing past
        ``max_frame`` whole or in pieces — gets close code 1002 and the
        caller a :class:`~repro.errors.ProtocolError`.
        """
        if self.closed:
            return None
        try:
            while True:
                # max_frame bounds the whole message, fragments included
                fin, opcode, payload = await _read_ws_frame(
                    self._reader,
                    self.max_frame - sum(map(len, self._fragments)),
                    masked=not self._client_side,
                )
                self.frames_received += 1
                self.bytes_received += len(payload)
                if self._on_traffic is not None:
                    self._on_traffic()
                if opcode == OP_PING:
                    self.pings_received += 1
                    with suppress(ConnectionClosed):
                        self._write_frame(OP_PONG, payload)
                elif opcode == OP_PONG:
                    self.pongs_received += 1
                elif opcode == OP_CLOSE:
                    self.send_close()
                    self.closed = True
                    return None
                elif opcode in (OP_BINARY, OP_TEXT, OP_CONT):
                    if (opcode == OP_CONT) != bool(self._fragments):
                        raise ProtocolError(
                            "continuation frame without a start"
                            if opcode == OP_CONT
                            else "data frame inside a fragmented message"
                        )
                    if fin and not self._fragments:
                        return payload  # the common case: one unfragmented frame
                    self._fragments.append(payload)
                    if fin:
                        message = b"".join(self._fragments)
                        self._fragments = []
                        return message
                # unknown control opcodes are ignored (forward compatibility)
        except ProtocolError:
            self.send_close(1002)
            self.closed = True
            raise
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            self.closed = True
            return None

    # -- lifecycle ----------------------------------------------------------
    def close_transport(self) -> None:
        """Drop the TCP transport (idempotent, never raises)."""
        self.closed = True
        with suppress(Exception):
            self._writer.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        side = "client" if self._client_side else "server"
        state = "closed" if self.closed else "open"
        return f"<WsConnection {side} {state} peer={self.peer}>"


async def connect_websocket(
    url: str, timeout: float = 10.0, max_frame: int = DEFAULT_MAX_FRAME
) -> WsConnection:
    """Open and upgrade a client connection to *url* (``ws://host:port``)."""
    host, port, path = parse_ws_url(url)
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port, limit=READ_LIMIT), timeout
    )
    try:
        await client_handshake(reader, writer, f"{host}:{port}", path, timeout=timeout)
    except BaseException:
        writer.close()
        raise
    return WsConnection(reader, writer, client_side=True, peer=url, max_frame=max_frame)


# --------------------------------------------------------------------------
# Real-clock heartbeat support
# --------------------------------------------------------------------------


class LoopClock:
    """Real-clock scheduler facade over an asyncio loop.

    Exposes exactly the slice of the simulation
    :class:`~repro.sim.scheduler.Scheduler` interface that
    :class:`~repro.net.heartbeat.HeartbeatMonitor` consumes — ``now`` and
    ``call_later`` returning a cancellable handle — so the same monitor
    implementation runs unchanged against wall-clock time: the timers are
    loop timers, and they fire while the scheduler's run loop is spinning.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    @property
    def now(self) -> float:
        return self._loop.time()

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> Any:
        """Schedule *callback*; the returned ``TimerHandle`` has ``cancel()``."""
        return self._loop.call_later(delay, callback, *args)


# --------------------------------------------------------------------------
# The volunteer gateway (server side)
# --------------------------------------------------------------------------


class _GatewayVolunteer:
    """Master-side bookkeeping for one websocket volunteer."""

    def __init__(self, conn: WsConnection, hello: Dict[str, Any]) -> None:
        self.conn = conn
        self.hello = hello
        self.worker_id: Optional[str] = None
        self.handle: Any = None
        self.port: Optional[PushablePort] = None
        self.monitor: Optional[HeartbeatMonitor] = None
        self.record: Any = None
        #: set by the gateway dispatch once attach succeeded (or was refused)
        self.attached = asyncio.Event()
        self.rejected = False
        #: termination marker once the volunteer can no longer receive values
        self.close_reason: End = None
        self.seq = 0
        self.values_sent = 0
        self.results_received = 0
        #: DATA frames sent and not answered yet, oldest first — what each
        #: RESULT is checked against (:func:`repro.net.wire.claim`)
        self.frames: Deque[wire.Frame] = deque()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "lost" if self.close_reason is not None else "open"
        return f"<_GatewayVolunteer {self.worker_id} {state}>"


class WsVolunteerGateway(EventSource):
    """Accept real websocket volunteers into a :class:`DistributedMap`.

    The gateway is an :class:`~repro.sched.sources.EventSource`: connection
    handler tasks (running on the scheduler's loop whenever it spins) only
    *enqueue* membership events and push results into per-volunteer
    :class:`~repro.sched.sources.PushablePort` ingresses; every stream
    mutation — attaching the sub-stream, recording a departure — happens in
    :meth:`dispatch` on the dispatch thread, preserving the single-threaded
    pull-stream invariant.

    Lifecycle: :meth:`start` binds the server and registers the gateway
    (the URL to hand volunteers is :attr:`url`); volunteers may connect any
    time — handshakes complete while ``drive()`` spins the loop; a volunteer
    that vanishes mid-frame (reset, kill, heartbeat silence) fails its
    sub-stream, so the lender re-lends its borrowed values elsewhere — and
    so does one that breaks the protocol (bad framing, a record that does
    not decode without resolving a global, a RESULT that does not match the
    frame it answers), after close code 1002 and a ``frame_refused`` trace
    event; and :meth:`stop` (called by ``DistributedMap.close``) tears down
    the server and every connection.

    A drive with zero connected volunteers waits (the master's ordinary
    "waiting for volunteers" state) — pass ``timeout=`` to ``drive`` as the
    guard, exactly like the paper's master, which serves until someone joins.
    """

    def __init__(
        self,
        dmap: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        fn_ref: Any = None,
        frame_batch: Optional[int] = None,
        window: Optional[int] = None,
        heartbeat_interval: float = DEFAULT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_TIMEOUT,
        max_frame: int = DEFAULT_MAX_FRAME,
        registry: Any = None,
    ) -> None:
        if heartbeat_interval <= 0 or heartbeat_timeout <= 0:
            raise PandoError("heartbeat interval and timeout must be positive")
        self.dmap = dmap
        self.scheduler = dmap.scheduler
        self.host = host
        self.port = port
        self.fn_ref = fn_ref
        self.frame_batch = frame_batch if frame_batch is not None else dmap.batch_size
        self.window = window
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_frame = max_frame
        if registry is None:
            # Imported lazily: repro.master imports repro.net back.
            from ..master.registry import VolunteerRegistry

            registry = VolunteerRegistry()
        #: the master's :class:`~repro.master.registry.VolunteerRegistry`
        #: (join/leave/crash records with wall-clock timestamps)
        self.registry = registry
        self.url: Optional[str] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._clock: Optional[LoopClock] = None
        self._inbox: Deque[Tuple[Any, ...]] = deque()
        self._inbox_lock = threading.Lock()
        self._volunteers: Dict[str, _GatewayVolunteer] = {}
        #: connection handler tasks still running (any stage, hello included)
        self._handlers: Set[asyncio.Task] = set()
        self._reap: List[_GatewayVolunteer] = []
        self._ids = itertools.count(1)
        # counters for tests and benches
        self.volunteers_joined = 0
        self.volunteers_left = 0
        self.volunteers_crashed = 0
        #: heartbeat-triggered suspicions (a clean run must keep this at 0)
        self.suspicions = 0
        self.frames_sent = 0
        self.values_sent = 0
        self.results_received = 0
        #: pings sent across all departed connections (liveness really ran)
        self.pings_sent = 0
        #: websocket payload bytes sent to / received from volunteers
        self.bytes_sent = 0
        self.bytes_received = 0
        #: the owning map's observability plane (frame tracing), or None
        self.obs = getattr(dmap, "obs", None)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> str:
        """Bind the websocket server and return its ``ws://`` URL."""
        if self._server is not None:
            raise PandoError("WsVolunteerGateway is already started")
        loop = self.scheduler.loop
        self._clock = LoopClock(loop)
        self._server = self.scheduler.run_coroutine(
            asyncio.start_server(
                self._handle_connection, self.host, self.port, limit=READ_LIMIT
            )
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.url = f"ws://{self.host}:{self.port}"
        self.scheduler.register(self)
        return self.url

    def stop(self) -> None:
        """Close the server and every volunteer connection (idempotent)."""
        server, self._server = self._server, None
        if self.scheduler.closed:
            # The loop is gone: drop the transports synchronously.
            if server is not None:
                server.close()
            for volunteer in self._volunteers.values():
                volunteer.conn.close_transport()
            return

        async def _shutdown() -> None:
            if server is not None:
                server.close()
                await server.wait_closed()
            # A hello still queued is answered now (welcomed, or told the
            # stream is over) while the loop can still deliver the answer.
            self._drain_inbox()
            # The loop stops spinning the instant the last sink completes,
            # which is typically *before* the volunteers' bye frames arrive.
            # Give the handlers a short grace window so a volunteer that
            # finished cleanly is recorded as a leave, not a crash, and a
            # refused one reads its END instead of a dead socket.
            tasks = list(self._handlers)
            if tasks:
                await asyncio.wait(tasks, timeout=STOP_GRACE)
            for volunteer in list(self._volunteers.values()):
                if volunteer.close_reason is None:
                    volunteer.close_reason = ConnectionClosed("gateway stopped")
                volunteer.conn.send_close()
                volunteer.conn.close_transport()
            pending = [task for task in tasks if not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

        if server is not None or self._handlers:
            self.scheduler.run_coroutine(_shutdown())
        # Settle the membership bookkeeping the teardown just enqueued.
        self._drain_inbox()

    # ------------------------------------------------------- EventSource API
    def ready(self) -> bool:
        with self._inbox_lock:
            return bool(self._inbox)

    @loop_only
    def dispatch(self) -> bool:
        with self._inbox_lock:
            if not self._inbox:
                return False
            event = self._inbox.popleft()
        kind = event[0]
        if kind == "join":
            self._attach(event[1])
        elif kind == "left":
            self._record_left(event[1], event[2])
        self._reap_ports()
        return True

    def _drain_inbox(self) -> None:
        while self.dispatch():
            pass

    def live(self) -> bool:
        # An open server may accept a volunteer at any moment; a volunteer
        # may answer at any moment.  Only a stopped gateway with no
        # connections left cannot contribute progress.
        if self._server is not None:
            return True
        with self._inbox_lock:
            if self._inbox:
                return True
        return any(v.close_reason is None for v in self._volunteers.values())

    # --------------------------------------------------- connection handling
    @any_thread
    def _enqueue(self, event: Tuple[Any, ...]) -> None:
        with self._inbox_lock:
            self._inbox.append(event)
        self.scheduler.wake()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._handlers.discard(task)
            # Idempotent; covers a handler cancelled before its hello.
            writer.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        try:
            await server_handshake(reader, writer)
        except Exception:
            with suppress(Exception):
                writer.close()
            return
        conn = WsConnection(
            reader, writer, client_side=False, peer=peer, max_frame=self.max_frame
        )
        try:
            payload = await asyncio.wait_for(conn.recv(), 30.0)
        except Exception:
            conn.close_transport()
            return
        if payload is None:
            conn.close_transport()
            return
        try:
            hello, _values = wire.decode(payload, trusted=False)
        except ProtocolError as exc:
            self._refuse(conn, peer, exc)
            conn.close_transport()
            return
        if hello.get("kind") != HELLO:
            conn.close_transport()
            return
        volunteer = _GatewayVolunteer(conn, hello)
        self._enqueue(("join", volunteer))
        await volunteer.attached.wait()
        if volunteer.rejected:
            # Too late (the map has terminated): tell the volunteer the
            # stream is over, so it goes home cleanly instead of seeing a
            # connection that died during the handshake.
            with suppress(Exception):
                conn.send_bytes(wire.encode({"kind": END, "error": None}))
                conn.send_close(1001)
                await conn.drain()
            conn.close_transport()
            return
        crashed = True  # crash-stop unless a clean bye/close arrives
        reason: Optional[BaseException] = None
        try:
            while True:
                payload = await conn.recv()
                if payload is None:
                    reason = ConnectionClosed(
                        f"volunteer {volunteer.worker_id} connection closed"
                    )
                    break
                self.bytes_received += len(payload)
                # A volunteer sends data, never code: no global is resolved.
                record, values = wire.decode(payload, trusted=False)
                kind = record.get("kind")
                if kind == wire.RESULT:
                    frame = wire.claim(volunteer.frames, record, values)
                    if not record["ok"]:
                        reason = TaskError(
                            f"volunteer {volunteer.worker_id} task failed: "
                            f"{record.get('error') or 'unknown error'}"
                        )
                        break
                    volunteer.results_received += frame.count
                    self.results_received += frame.count
                    if frame.trace is not None:
                        self.obs.observe_frame(frame.trace)
                    volunteer.port.push(frame.unwrap(values))
                elif kind == BYE:
                    crashed = False
                    break
                # unknown kinds are ignored (forward compatibility)
        except asyncio.CancelledError:
            # gateway.stop() cancelled us; bookkeeping still runs below.
            crashed = False
        except ProtocolError as exc:
            # Broken framing, a forged record, a result out of turn: fail
            # this volunteer only.
            reason = exc
            self._refuse(conn, volunteer.worker_id, exc)
        finally:
            self._finish_connection(volunteer, crashed, reason)

    def _refuse(self, conn: WsConnection, worker: Optional[str], exc: ProtocolError) -> None:
        """Answer a frame the protocol forbids: close 1002, and say so."""
        conn.send_close(1002)
        if self.obs is not None:
            self.obs.trace.emit("frame_refused", worker=worker, reason=str(exc))

    def _finish_connection(
        self,
        volunteer: _GatewayVolunteer,
        crashed: bool,
        reason: Optional[BaseException],
    ) -> None:
        """Terminate the volunteer's result stream and queue the bookkeeping.

        Runs on the loop thread (handler task).  The port operations only
        enqueue — the stream machinery sees the termination on the next
        dispatch round, strictly after any results that arrived before it.
        """
        conn = volunteer.conn
        if volunteer.port is None:
            # Never attached (stop() raced the hello, or attach was refused).
            conn.close_transport()
            return
        if volunteer.close_reason is None:
            volunteer.close_reason = (
                (reason or ConnectionClosed(f"volunteer {volunteer.worker_id} lost"))
                if crashed
                else DONE
            )
        if is_error(volunteer.close_reason):
            volunteer.port.error(volunteer.close_reason)
        else:
            volunteer.port.end()
        conn.close_transport()
        self._enqueue(("left", volunteer, is_error(volunteer.close_reason)))

    def _suspect(self, volunteer: _GatewayVolunteer) -> None:
        """Heartbeat timeout: declare the volunteer dead (crash-stop)."""
        if volunteer.close_reason is not None:
            return
        self.suspicions += 1
        if self.obs is not None:
            self.obs.trace.emit(
                "heartbeat_suspicion",
                worker=volunteer.worker_id,
                timeout=self.heartbeat_timeout,
            )
        error = ConnectionClosed(
            f"volunteer {volunteer.worker_id} suspected: no traffic for "
            f"{self.heartbeat_timeout}s"
        )
        volunteer.close_reason = error
        if volunteer.port is not None:
            volunteer.port.error(error)
        # Dropping the transport unblocks the reader task, whose exit path
        # records the departure.
        volunteer.conn.close_transport()

    # ------------------------------------------------------------- dispatch
    @loop_only
    def _attach(self, volunteer: _GatewayVolunteer) -> None:
        """Wire one hello'd volunteer into the map (dispatch thread)."""
        hello = volunteer.hello
        tabs = max(1, int(hello.get("tabs", 1) or 1))
        worker_id = self._claim_worker_id(hello.get("name"))
        port: Optional[PushablePort] = None
        try:
            pushable = Pushable()
            port = PushablePort(self.scheduler, pushable)
            self.scheduler.register(port)
            volunteer.port = port
            volunteer.worker_id = worker_id
            welcome = {
                "kind": WELCOME,
                "version": WIRE_VERSION,
                "worker_id": worker_id,
                "fn_ref": self.fn_ref,
                "frame_batch": self.frame_batch,
                "heartbeat_interval": self.heartbeat_interval,
                "heartbeat_timeout": self.heartbeat_timeout,
            }
            volunteer.conn.send_bytes(wire.encode(welcome))
            window = self.window if self.window is not None else tabs + 1
            volunteer.handle = self.dmap.add_channel(
                Duplex(source=pushable, sink=self._make_ws_sink(volunteer)),
                worker_id=worker_id,
                batch_size=window,
                frame_batch=self.frame_batch,
            )
        except Exception:
            # Late attach (map already terminated) or a dead socket: refuse.
            volunteer.rejected = True
            volunteer.port = None
            if port is not None:
                self.scheduler.unregister(port)
            volunteer.attached.set()
            return
        self._volunteers[worker_id] = volunteer
        volunteer.record = self.registry.register(
            host=volunteer.conn.peer,
            device_name=str(hello.get("name") or worker_id),
            protocol="ws",
            joined_at=self._clock.now,
            tabs=tabs,
        )
        monitor = HeartbeatMonitor(
            self._clock,
            send=volunteer.conn.send_ping,
            on_failure=lambda: self._suspect(volunteer),
            interval=self.heartbeat_interval,
            timeout=self.heartbeat_timeout,
        )
        volunteer.monitor = monitor
        volunteer.conn.on_traffic(monitor.touch)
        monitor.start()
        self.volunteers_joined += 1
        volunteer.attached.set()

    def _claim_worker_id(self, requested: Any) -> str:
        base = str(requested) if requested else f"{NAME_PREFIX}-{next(self._ids)}"
        worker_id = base
        suffix = itertools.count(2)
        while worker_id in self.dmap.workers:
            worker_id = f"{base}-{next(suffix)}"
        return worker_id

    @loop_only
    def _record_left(self, volunteer: _GatewayVolunteer, crashed: bool) -> None:
        if volunteer.monitor is not None:
            volunteer.monitor.stop()
        if volunteer.record is not None:
            self.registry.mark_left(
                volunteer.record.volunteer_id, self._clock.now, crashed=crashed
            )
        if crashed:
            self.volunteers_crashed += 1
        else:
            self.volunteers_left += 1
        self.pings_sent += volunteer.conn.pings_sent
        if volunteer.worker_id is not None:
            self._volunteers.pop(volunteer.worker_id, None)
        self._reap.append(volunteer)

    def _reap_ports(self) -> None:
        """Unregister the ports of departed volunteers once they drained."""
        still_waiting: List[_GatewayVolunteer] = []
        for volunteer in self._reap:
            port = volunteer.port
            if port is not None and port.live():
                still_waiting.append(volunteer)  # queued results not yet ported
            elif port is not None:
                self.scheduler.unregister(port)
        self._reap = still_waiting

    # ------------------------------------------------------------- the sink
    def _make_ws_sink(self, volunteer: _GatewayVolunteer) -> Callable[[Any], None]:
        """The duplex sink sending sub-stream values to one volunteer.

        Mirrors the simulated channel sink: eagerly drain the (limited)
        upstream, one wire frame per value-or-:class:`Batch`; when the
        volunteer is gone, abort the upstream with the close reason so the
        lender re-lends whatever this volunteer still borrowed.
        """
        conn = volunteer.conn

        def on_value(value: Any) -> None:
            was_batch = isinstance(value, Batch)
            values = list(value.values) if was_batch else [value]
            volunteer.seq += 1
            record = {"kind": wire.DATA, "seq": volunteer.seq}
            trace = (
                self.obs.begin_frame("ws", values=len(values))
                if self.obs is not None
                else None
            )
            if trace is not None:
                # The trace dict rides the wire record; the volunteer echoes
                # it back in the RESULT record with exec_s added.
                record["trace"] = trace
            try:
                parts = wire.encode(record, values)
                volunteer.frames.append(
                    wire.Frame(volunteer.seq, was_batch, len(values), trace)
                )
                conn.send_bytes(parts)
            except Exception as exc:
                # The socket died under the write: crash-stop.  The pump
                # aborts the upstream through closed_reason on its next turn.
                if volunteer.close_reason is None:
                    volunteer.close_reason = ConnectionClosed(
                        f"write to volunteer {volunteer.worker_id} failed: {exc!r}"
                    )
                return
            wire_bytes = wire.payload_size(parts)
            if trace is not None:
                self.obs.end_serialize(trace)
                self.obs.observe_payload("ws", wire_bytes)
            self.bytes_sent += wire_bytes
            volunteer.values_sent += len(values)
            self.values_sent += len(values)
            self.frames_sent += 1

        def on_end(end: End) -> None:
            # Upstream terminated (all work done, or the map aborted): tell
            # the volunteer to stop waiting for frames and go home.
            if volunteer.close_reason is None and not conn.closed:
                with suppress(Exception):
                    conn.send_bytes(
                        wire.encode(
                            {"kind": END, "error": repr(end) if is_error(end) else None}
                        )
                    )

        def closed_reason() -> End:
            reason = volunteer.close_reason
            if reason is None:
                return None
            return reason if is_error(reason) else DONE

        def sink(read: Any) -> None:
            eager_pump(read, on_value, on_end, closed_reason)

        sink.pull_role = "sink"
        return sink

    # ----------------------------------------------------------- inspection
    @property
    def active_volunteers(self) -> List[str]:
        """Worker ids of the currently attached volunteers."""
        return [
            worker_id
            for worker_id, volunteer in self._volunteers.items()
            if volunteer.close_reason is None
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "open" if self._server is not None else "stopped"
        return (
            f"<WsVolunteerGateway {state} url={self.url} "
            f"volunteers={len(self._volunteers)} joined={self.volunteers_joined}>"
        )
