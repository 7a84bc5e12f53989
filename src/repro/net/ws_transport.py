"""Real websocket volunteer transport on the scheduler's event loop.

Everything else under ``repro.net`` simulates the network; this module is the
wire.  It binds an actual RFC 6455 websocket server (stdlib-only: the
handshake is HTTP + SHA-1, frames are length-prefixed with client-side
masking, heartbeats are real ping/pong control frames) to the event-loop
primitives so **external worker processes attach to a live master over
TCP** — the paper's deployment story (volunteers on the same LAN or VPN),
minus the browser:

* A websocket, either side, is an :class:`~repro.net.endpoint.Endpoint` — the
  object a pool child's pipe is to its pool — on a socket this module
  accepts or connects itself: first with the
  :data:`~repro.net.endpoint.HTTP_HEAD` framing for the upgrade, then with
  :class:`~repro.net.endpoint.WS`.  No stream reader, no task per
  connection: a readable socket is read from the loop's selector as far as
  it goes, and whatever is whole is filed on the endpoint (the data path,
  copy by copy, is described there).
* The payload of each websocket binary frame is one frame of
  :mod:`repro.net.wire`, the codec every transport shares: a control record
  followed by the out-of-band buffers of its large ``bytes``/array values.
  One DATA frame carries one stream value or one
  :class:`~repro.net.serialization.Batch` of them, answered in order by one
  RESULT frame.  (:func:`pack_wire_frame` and :func:`unpack_wire_frame` are
  that codec under the names this module had for it.)
* :class:`WsVolunteerGateway` — the server, registered on an
  :class:`~repro.sched.event_loop.EventLoopScheduler` as an
  :class:`~repro.sched.sources.EventSource`.  A hello attaches the volunteer
  to the :class:`~repro.core.distributed_map.DistributedMap` as an ordinary
  channel worker, a RESULT is pushed straight into that channel's source, and
  a volunteer that vanishes mid-frame (socket reset, SIGKILL, heartbeat
  timeout) fails its sub-stream so the lender re-lends its borrowed values
  to the survivors — the existing crash-stop paths, now
  triggered by a real wire.  The scheduler's loop is also the clock of each
  volunteer's :class:`~repro.net.heartbeat.HeartbeatMonitor`: pings every
  *interval*, crash-stop suspicion after *timeout* of silence.

The names both ends agree on (the session's record kinds, the accept key,
``ws://`` URLs) live in the leaf :mod:`repro.net.ws_protocol`; the client side
of the upgrade, ``connect_websocket``, lives with the volunteer process
(:mod:`repro.worker.ws_volunteer`), on that process's own
:class:`~repro.sched.loop.Loop`.

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
as were sent), and until its hello has been welcomed a connection may not
announce a message larger than :data:`PRE_HELLO_MAX_FRAME`.  What the
*master* sends, a volunteer reads with plain pickle — the welcome may carry
the processing function itself, and a volunteer runs the master's code by
design, exactly as the paper's volunteers execute the bundle they download.
So: joining a master means trusting it; serving volunteers does not mean
trusting them with more than wrong answers.
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Callable, Dict, List, Optional

from ..analysis.annotations import loop_only
from ..errors import ConnectionClosed, PandoError, ProtocolError, TaskError
from ..pullstream.duplex import Duplex
from ..pullstream.protocol import DONE, End, is_error
from ..pullstream.pushable import Pushable
from ..pullstream.sinks import eager_pump
from ..sched.sources import EndpointSource
from . import wire
from .endpoint import (  # noqa: F401 - OP_BINARY and encode_ws_frame are perf/'s names
    DEFAULT_MAX_FRAME,
    HTTP_HEAD,
    OP_BINARY,
    WS,
    Endpoint,
    close_owned,
    encode_ws_frame,
    own_socket,
)
from .heartbeat import DEFAULT_INTERVAL, DEFAULT_TIMEOUT, HeartbeatMonitor
from .serialization import OOB_MIN_BYTES
from .ws_protocol import BYE, END, HELLO, WELCOME, WIRE_VERSION, accept_key, head_lines

__all__ = [
    "WsVolunteerGateway",
    "pack_wire_frame",
    "unpack_wire_frame",
]

#: worker ids of volunteers that announce no name: ``ws-1``, ``ws-2``, ...
NAME_PREFIX = "ws"

#: how long :meth:`WsVolunteerGateway.stop` serves late hellos and waits for
#: in-flight byes before force-closing
STOP_GRACE = 0.5

#: Largest message a connection may announce before its hello is welcomed (a
#: hello record is under 1 KiB): an anonymous peer cannot make the master
#: allocate the 256 MiB a volunteer's frame may be.
PRE_HELLO_MAX_FRAME = 64 * 1024

#: a connection that has not been welcomed by then is dropped
HANDSHAKE_TIMEOUT = 30.0

_BAD_REQUEST = b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"


# --------------------------------------------------------------------------
# The HTTP upgrade
# --------------------------------------------------------------------------


def upgrade_response(request: Any) -> bytes:
    """The ``101`` answering the upgrade *request* head; a
    :class:`~repro.errors.ProtocolError` when it is not one."""
    start, headers = head_lines(request)
    key = headers.get("sec-websocket-key")
    if (
        "websocket" not in headers.get("upgrade", "").lower()
        or not start.startswith("GET ")
        or key is None
    ):
        raise ProtocolError(f"not a websocket upgrade request: {start!r}")
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {accept_key(key)}\r\n"
        "\r\n"
    ).encode("latin-1")


# --------------------------------------------------------------------------
# The codec under this module's names for it
# --------------------------------------------------------------------------


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
# The volunteer gateway (server side)
# --------------------------------------------------------------------------


class _Volunteer:
    """Master-side bookkeeping for one connection, from accept to departure."""

    def __init__(self, endpoint: Endpoint, peer: str) -> None:
        self.endpoint = endpoint
        self.peer = peer
        #: the connection's framing once it has upgraded
        self.ws: Optional[WS] = None
        #: drops the connection if it is not welcomed in time
        self.timer: Any = None
        #: set by the welcome; None for a connection that has not joined
        self.worker_id: Optional[str] = None
        self.pushable: Optional[Pushable] = None
        self.monitor: Optional[HeartbeatMonitor] = None
        self.record: Any = None
        #: termination marker once the volunteer can no longer receive values
        self.close_reason: End = None


class WsVolunteerGateway(EndpointSource):
    """Accept real websocket volunteers into a :class:`DistributedMap`.

    The gateway is an :class:`~repro.sched.sources.EndpointSource` — the
    same turn-taking over endpoints a process pool is — whose unit of work is
    one message a volunteer's :class:`~repro.net.endpoint.Endpoint` filed:
    its hello, a RESULT, its bye, the end of its stream.  It is handled from
    the reader callback that filed it (``scheduler.dispatch_now``) or, for a
    backlog, from the pump's fair round; nothing between runs.  The reader
    callbacks only read and file (and answer the HTTP upgrade, which is
    nobody else's business); every stream mutation — attaching the
    sub-stream, pushing a result, recording a departure — happens in
    :meth:`handle`, so an exception a sink raises on a volunteer's result
    comes out of ``drive()`` as it does for a pool's.

    Lifecycle: :meth:`start` binds the listening socket and registers the
    gateway (the URL to hand volunteers is :attr:`url`); volunteers may
    connect any time — they are accepted and upgraded whenever the loop
    spins, welcomed while ``drive()`` does; a volunteer that vanishes
    mid-frame (reset, kill, heartbeat silence) fails its sub-stream, so the
    lender re-lends its borrowed values elsewhere — and so does one that
    breaks the protocol (bad framing, a record that does not decode without
    resolving a global, a RESULT that does not match the frame it answers),
    after close code 1002 and a ``frame_refused`` trace event; and
    :meth:`stop` (called by ``DistributedMap.close``) serves whoever is still
    knocking, then tears down the listener and every connection.

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
    ) -> None:
        if heartbeat_interval <= 0 or heartbeat_timeout <= 0:
            raise PandoError("heartbeat interval and timeout must be positive")
        super().__init__()
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
        #: the map's :class:`~repro.master.registry.VolunteerRegistry`, where
        #: each volunteer's join/leave/crash is recorded (loop-clock times)
        self.registry = dmap.registry
        self.url: Optional[str] = None
        self._listener: Optional[socket.socket] = None
        #: the loop's timer heap once started: handshake deadlines and
        #: heartbeats, and the clock joins and departures are stamped with
        self._clock: Any = None
        #: every open connection, joined or not, by its endpoint
        self._connections: Dict[Endpoint, _Volunteer] = {}
        #: the joined ones by worker id
        self._volunteers: Dict[str, _Volunteer] = {}
        #: :meth:`stop` is serving the last messages (nothing goes down a stream)
        self._settling = False
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
        """Bind the listening socket and return its ``ws://`` URL."""
        if self._listener is not None:
            raise PandoError("WsVolunteerGateway is already started")
        loop = self.scheduler.loop
        self._clock = loop.timers
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        listener = socket.create_server((self.host, self.port), family=family)
        listener.setblocking(False)
        own_socket(listener)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self.url = f"ws://{self.host}:{self.port}"
        loop.add_reader(listener, self._on_accept)
        self.scheduler.register(self)
        return self.url

    def stop(self) -> None:
        """Close the listener and every volunteer connection (idempotent)."""
        listener = self._listener
        if self.scheduler.closed:
            # The loop is gone: drop the sockets synchronously.
            self._listener = None
            if listener is not None:
                close_owned(listener)
            for volunteer in list(self._connections.values()):
                volunteer.endpoint.close()
            return
        if listener is not None:
            # Whoever connected while nobody spun the loop is served like any
            # late volunteer — welcomed, or told the stream is over — instead
            # of finding a dead socket.
            self._on_accept()
            self._listener = None
            self.scheduler.loop.remove_reader(listener)
            close_owned(listener)
        if self._connections:
            # The loop stops spinning the instant the last sink completes,
            # which is typically *before* the volunteers' bye frames arrive.
            # Give them a short grace window so a volunteer that finished
            # cleanly is recorded as a leave, not a crash, and a refused one
            # reads its END instead of a dead socket.
            self._settling = True
            try:
                self.scheduler.spin(STOP_GRACE, until=self._settled)
            finally:
                self._settling = False
        for volunteer in list(self._connections.values()):
            self._finish(volunteer, ConnectionClosed("gateway stopped"))

    def _settled(self) -> bool:
        """Handle what is filed; True once every connection is gone."""
        while self.dispatch():
            pass
        return not self._connections

    # ------------------------------------------------------- EventSource API
    def live(self) -> bool:
        # An open listener may accept a volunteer at any moment; a connection
        # may file a message at any moment.  Only a stopped gateway with no
        # connections left cannot contribute progress.
        return self._listener is not None or bool(self._connections)

    # --------------------------------------------------- connection handling
    @loop_only
    def _on_accept(self) -> None:
        """Take every connection the listening socket holds."""
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError:  # nothing left to accept (or nothing acceptable)
                return
            # frames are written whole; waiting to coalesce them only adds latency
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            volunteer = _Volunteer(Endpoint(sock, HTTP_HEAD), f"{address[0]}:{address[1]}")
            self._connections[volunteer.endpoint] = volunteer
            volunteer.timer = self._clock.call_later(
                HANDSHAKE_TIMEOUT, self._finish, volunteer, None
            )
            self.watch(volunteer.endpoint)

    @loop_only
    def on_filed(self, endpoint: Endpoint) -> None:
        """A connection's endpoint filed something: answer its upgrade
        request, if that is what it is, then take turns as any endpoint."""
        volunteer = self._connections[endpoint]
        if volunteer.ws is None:
            self._upgrade(volunteer)
        super().on_filed(endpoint)

    def _upgrade(self, volunteer: _Volunteer) -> None:
        """Answer the HTTP upgrade request — here, not in a dispatch: it
        touches no stream, and a volunteer may knock between runs."""
        endpoint = volunteer.endpoint
        request = endpoint.inbox.popleft()
        try:
            if isinstance(request, Exception):
                raise request
            endpoint.write([upgrade_response(request)])
        except ProtocolError:
            endpoint.write([_BAD_REQUEST])
            self._finish(volunteer, None)
        except EOFError:
            self._finish(volunteer, None)
        else:
            volunteer.ws = endpoint.framing = WS(
                client_side=False, max_frame=PRE_HELLO_MAX_FRAME
            )

    def handle(self, endpoint: Endpoint, message: Any) -> None:
        """One filed message of an upgraded connection (dispatch thread)."""
        volunteer = self._connections[endpoint]
        try:
            if isinstance(message, Exception):
                raise message
            if volunteer.worker_id is not None:
                self.bytes_received += len(message)
            # A volunteer sends data, never code: no global is resolved.
            record, values = wire.decode(message, trusted=False)
            kind = record.get("kind")
            if volunteer.worker_id is None:
                if kind == HELLO:
                    self._attach(volunteer, record)
                else:
                    self._finish(volunteer, None)
            elif kind == wire.RESULT:
                frame = volunteer.endpoint.claim(record, values)
                if not record["ok"]:
                    # the error travelled as its repr: data, never an object
                    cause = RuntimeError(record.get("error") or "unknown error")
                    self._finish(
                        volunteer,
                        TaskError(f"frame {frame.seq} of volunteer {volunteer.worker_id}", cause),
                    )
                    return
                self.results_received += frame.count
                if frame.trace is not None:
                    self.obs.observe_frame(frame.trace)
                # stop() only settles membership: nothing goes down the
                # stream between runs.
                if not self._settling:
                    volunteer.pushable.push(frame.unwrap(values))
            elif kind == BYE:
                self._finish(volunteer, DONE)
            # unknown kinds are ignored (forward compatibility)
        except ProtocolError as exc:
            # Broken framing, a forged record, a result out of turn: fail
            # this volunteer only — close 1002, and say so.
            if self.obs is not None:
                self.obs.trace.emit(
                    "frame_refused", worker=volunteer.worker_id or volunteer.peer, reason=str(exc)
                )
            self._finish(volunteer, exc, code=1002)
        except EOFError:
            self._finish(
                volunteer,
                ConnectionClosed(f"volunteer {volunteer.worker_id} connection closed"),
            )
        except ConnectionClosed as exc:  # the heartbeat's verdict
            self._finish(volunteer, exc)

    def _finish(self, volunteer: _Volunteer, reason: End, code: int = 1000) -> None:
        """The connection is over: close it and settle the membership.

        *reason* is ``DONE`` after a bye, else the error the volunteer is lost
        to (``None`` for a connection that never joined).  A crash-stop
        terminates the volunteer's result stream with the error — strictly
        after the results filed before it — so the lender re-lends what it
        still borrowed.
        """
        endpoint = volunteer.endpoint
        if self._connections.pop(endpoint, None) is None:
            return
        volunteer.timer.cancel()
        if volunteer.ws is not None:
            endpoint.write(volunteer.ws.close(code))
        endpoint.close()
        endpoint.inbox.clear()
        if volunteer.worker_id is None:
            return
        if volunteer.close_reason is None:
            volunteer.close_reason = reason
        crashed = is_error(volunteer.close_reason)
        volunteer.monitor.stop()
        self.registry.mark_left(
            volunteer.record.volunteer_id, self._clock.now, crashed=crashed
        )
        if crashed:
            self.volunteers_crashed += 1
        else:
            self.volunteers_left += 1
        self.pings_sent += volunteer.ws.pings_sent
        self._volunteers.pop(volunteer.worker_id, None)
        if crashed:
            volunteer.pushable.error(volunteer.close_reason)
        else:
            volunteer.pushable.end()

    def _suspect(self, volunteer: _Volunteer) -> None:
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
        volunteer.close_reason = ConnectionClosed(
            f"volunteer {volunteer.worker_id} suspected: no traffic for "
            f"{self.heartbeat_timeout}s"
        )
        # Filed behind what already arrived; the dispatch that reaches it
        # records the departure.
        volunteer.endpoint.fail(volunteer.close_reason)

    # ------------------------------------------------------------- dispatch
    @loop_only
    def _attach(self, volunteer: _Volunteer, hello: Dict[str, Any]) -> None:
        """Wire one hello'd volunteer into the map (dispatch thread)."""
        endpoint, ws = volunteer.endpoint, volunteer.ws
        tabs = max(1, int(hello.get("tabs", 1) or 1))
        worker_id = self._claim_worker_id(hello.get("name"))
        volunteer.pushable = Pushable()
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
        try:
            endpoint.write(ws.wrap(wire.encode(welcome)))
            self.dmap.add_channel(
                Duplex(source=volunteer.pushable, sink=self._make_ws_sink(volunteer)),
                worker_id=worker_id,
                batch_size=self.window if self.window is not None else tabs + 1,
                frame_batch=self.frame_batch,
            )
        except Exception:
            # Too late (the map has terminated): tell the volunteer the
            # stream is over, so it goes home cleanly instead of seeing a
            # connection that died during the handshake.  It hangs up, or
            # the handshake timer does.
            volunteer.worker_id = None
            endpoint.write(ws.wrap(wire.encode({"kind": END, "error": None})))
            endpoint.write(ws.close(1001))
            return
        volunteer.timer.cancel()
        ws.max_frame = self.max_frame
        self._volunteers[worker_id] = volunteer
        volunteer.record = self.registry.register(
            host=volunteer.peer,
            device_name=str(hello.get("name") or worker_id),
            protocol="ws",
            joined_at=self._clock.now,
            tabs=tabs,
        )
        volunteer.monitor = HeartbeatMonitor(
            self._clock,
            send=lambda: endpoint.write(ws.ping()),
            on_failure=lambda: self._suspect(volunteer),
            interval=self.heartbeat_interval,
            timeout=self.heartbeat_timeout,
        )
        endpoint.touch = volunteer.monitor.touch
        volunteer.monitor.start()
        self.volunteers_joined += 1

    def _claim_worker_id(self, requested: Any) -> str:
        base = str(requested) if requested else f"{NAME_PREFIX}-{next(self._ids)}"
        worker_id = base
        suffix = itertools.count(2)
        while worker_id in self.dmap.workers:
            worker_id = f"{base}-{next(suffix)}"
        return worker_id

    # ------------------------------------------------------------- the sink
    def _make_ws_sink(self, volunteer: _Volunteer) -> Callable[[Any], None]:
        """The duplex sink sending sub-stream values to one volunteer.

        Mirrors the simulated channel sink: eagerly drain the (limited)
        upstream, one wire frame per value-or-:class:`Batch`; when the
        volunteer is gone, abort the upstream with the close reason so the
        lender re-lends whatever this volunteer still borrowed.
        """
        endpoint, ws = volunteer.endpoint, volunteer.ws

        def on_value(value: Any) -> None:
            try:
                frame = endpoint.send_frame(value, self.obs, "ws")
            except Exception as exc:
                # A value that cannot travel: crash-stop.  The pump aborts
                # the upstream through closed_reason on its next turn.
                if volunteer.close_reason is None:
                    volunteer.close_reason = ConnectionClosed(
                        f"write to volunteer {volunteer.worker_id} failed: {exc!r}"
                    )
                return
            if frame.trace is not None:
                self.obs.observe_payload("ws", frame.size)
            self.bytes_sent += frame.size
            self.values_sent += frame.count
            self.frames_sent += 1

        def on_end(end: End) -> None:
            # Upstream terminated (all work done, or the map aborted): tell
            # the volunteer to stop waiting for frames and go home.
            if volunteer.close_reason is None:
                error = repr(end) if is_error(end) else None
                endpoint.write(ws.wrap(wire.encode({"kind": END, "error": error})))

        def sink(read: Any) -> None:
            eager_pump(read, on_value, on_end, lambda: volunteer.close_reason)

        sink.pull_role = "sink"
        return sink

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "open" if self._listener is not None else "stopped"
        return (
            f"<WsVolunteerGateway {state} url={self.url} "
            f"volunteers={len(self._volunteers)} joined={self.volunteers_joined}>"
        )
