"""The live volunteer: an OS process that joins a master over a websocket.

:func:`run_volunteer` dials a master's
:class:`~repro.net.ws_transport.WsVolunteerGateway` URL over an actual
websocket, downloads the function reference from the welcome frame (the
paper's "volunteers download the code from the master"), and processes DATA
frames on *tabs* threads — the paper's browser tabs — until the master says
END, the process is told to stop, or the wire dies.
:func:`spawn_volunteer_process` runs a session in a fresh child process, and
``pando volunteer ws://host:port`` (:func:`main`) from the command line.

A volunteer pays for its imports on every join and again on every rejoin
after a crash, so this module imports only what a session runs: the errors,
the endpoint and its framing, the wire codec and the names both ends agree
on, the heartbeat, the frame runner of :mod:`repro.pool.tasks` and the bare
loop of :mod:`repro.sched.loop` — nothing of the master, the simulation or
the observability plane.  numpy, which only makes the RFC 6455 mask cheaper,
is imported on a thread of its own once a session's answers have added up to
what the import costs.

Its end of the websocket is the same :class:`~repro.net.endpoint.Endpoint`
the gateway holds the other end with, on this process's own
:class:`~repro.sched.loop.Loop` on the real clock.  The loop thread reads
the master's frames, answers its pings and runs the handshake deadline and
the heartbeat as timers; each tab is a plain thread that takes frames off a
queue, computes and packs the answer, fills the frame's slot and wakes the
loop, which writes the answers strictly in arrival order.
:func:`connect_websocket` (the client half of the upgrade) and
:func:`next_message` are the same steps for a scripted peer.
"""

from __future__ import annotations

import base64
import functools
import multiprocessing
import os
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import Any, Deque, Dict, List, Optional

from ..analysis.annotations import any_thread
from ..errors import ConnectionClosed, PandoError, ProtocolError
from ..net import wire
from ..net.endpoint import DEFAULT_MAX_FRAME, HTTP_HEAD, WS, Endpoint, load_word_mask
from ..net.heartbeat import DEFAULT_INTERVAL, DEFAULT_TIMEOUT, HeartbeatMonitor
from ..net.ws_protocol import (
    BYE,
    END,
    HELLO,
    WELCOME,
    WIRE_VERSION,
    accept_key,
    head_lines,
    parse_ws_url,
)
from ..pool.tasks import answer, resolve_callable, run_batch
from ..sched.loop import Loop

__all__ = [
    "VolunteerReport",
    "connect_websocket",
    "main",
    "next_message",
    "run_volunteer",
    "spawn_volunteer_process",
]

#: Longest one turn of a volunteer's loop waits when no timer is due sooner;
#: a message, a tab's wake-up or a timer ends the wait first.
_IDLE_WAIT = 1.0

#: Answer bytes a session masks with the stride-4 lanes before it starts
#: importing numpy for the word XOR.  At ~2.6 ms per MiB the lanes have then
#: cost about what the import does (~110-170 ms in the interpreter plus
#: ~70-100 ms of BLAS threads starting, on two cores), so a session that
#: ends sooner never pays for an import it could not earn back, and a longer
#: one pays at most twice what knowing its length up front would have cost
#: (the rent-or-buy rule).  An import at the first answer instead halves a
#: freshly spawned pair's throughput for its first ~0.2 s.
_LANE_BYTES_BEFORE_IMPORT = 64 * 1024 * 1024


@dataclass
class VolunteerReport:
    """What one :func:`run_volunteer` session accomplished."""

    worker_id: Optional[str] = None
    frames_processed: int = 0
    values_processed: int = 0
    #: True when the session ended with the bye handshake (END received or
    #: *max_frames* reached), False when the wire died or a task failed
    graceful: bool = False
    #: True when the volunteer's own heartbeat monitor suspected the master
    #: (``error`` says so too: the session was abandoned)
    suspected_master: bool = False
    error: Optional[str] = None
    pings_received: int = 0
    pongs_received: int = 0


@any_thread
def run_volunteer(
    url: str,
    fn_ref: Any = None,
    name: Optional[str] = None,
    tabs: int = 1,
    max_frames: Optional[int] = None,
    connect_timeout: float = 10.0,
) -> VolunteerReport:
    """Join the master at *url* (``ws://host:port``) and process values.

    The session follows the paper's volunteer workflow over a real socket:
    hello (name + tab count) → welcome (worker id, function reference,
    heartbeat parameters) → DATA frames in, RESULT frames out — computed on
    *tabs* threads so several frames overlap, answered strictly in arrival
    order (the contract of the master's Limiter) — until the master sends
    END (or *max_frames* frames were answered, the leave-early case), then
    bye and a clean close.  *fn_ref* overrides the master-supplied function
    reference — any form :func:`~repro.pool.tasks.resolve_callable` accepts;
    at least one side must provide one.  Liveness is symmetric: the
    volunteer answers the master's pings automatically and runs its own
    :class:`~repro.net.heartbeat.HeartbeatMonitor`, abandoning a master that
    has gone silent (``suspected_master`` in the returned report).

    Blocks until the session ends, on a loop of its own (use
    :func:`spawn_volunteer_process` to run one in a child process), and
    never raises on wire or task trouble: the report's ``error`` carries it.
    """
    loop = Loop()
    try:
        return _session(loop, url, fn_ref, name, max(1, tabs), max_frames, connect_timeout)
    finally:
        loop.close()


def connect_websocket(
    loop: Loop, url: str, timeout: float = 10.0, max_frame: int = DEFAULT_MAX_FRAME
) -> Endpoint:
    """Open and upgrade a client connection to *url* (``ws://host:port``).

    Returns the connection — an :class:`~repro.net.endpoint.Endpoint` with
    the client side's :class:`~repro.net.endpoint.WS` framing, read and
    flushed by *loop*; :func:`next_message` waits for what it files.  The
    upgrade must be answered within *timeout* seconds (a timer on *loop*).
    """
    host, port, path = parse_ws_url(url)
    # resolves, and tries every address, under the one timeout
    sock = socket.create_connection((host, port), timeout)
    # frames are written whole; waiting to coalesce them only adds latency
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    endpoint = Endpoint(sock, HTTP_HEAD)
    deadline = loop.timers.call_later(
        timeout, endpoint.fail, TimeoutError(f"no upgrade within {timeout}s")
    )
    try:
        endpoint.watch(loop, _read_later)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        request = (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        )
        endpoint.write([request.encode("latin-1")])
        response = next_message(loop, endpoint)
        if isinstance(response, Exception):
            raise response
        start, headers = head_lines(response)
        if " 101 " not in start + " ":
            raise ProtocolError(f"websocket upgrade refused: {start!r}")
        if headers.get("sec-websocket-accept") != accept_key(key):
            raise ProtocolError("websocket upgrade returned a bad Sec-WebSocket-Accept")
    except BaseException:
        endpoint.close()
        raise
    finally:
        deadline.cancel()
    endpoint.framing = WS(client_side=True, max_frame=max_frame)
    return endpoint


def _read_later(endpoint: Endpoint) -> None:
    """What is filed stays on the endpoint's inbox until the session reads it."""


def next_message(loop: Loop, endpoint: Endpoint) -> Any:
    """Turn *loop* until *endpoint* has filed something, and take it: a
    message, or the exception its stream ended with.  Only a timer bounds the
    wait — one that fails the endpoint (:meth:`~repro.net.endpoint.Endpoint.fail`)
    ends it with that timer's exception."""
    while not endpoint.inbox:
        loop.run_once(_IDLE_WAIT)
    return endpoint.inbox.popleft()


def _session(
    loop: Loop,
    url: str,
    fn_ref: Any,
    name: Optional[str],
    tabs: int,
    max_frames: Optional[int],
    connect_timeout: float,
) -> VolunteerReport:
    report = VolunteerReport()
    try:
        endpoint = connect_websocket(loop, url, timeout=connect_timeout)
    except Exception as exc:
        report.error = f"connect failed: {exc!r}"
        return report
    ws = endpoint.framing
    monitor: Optional[HeartbeatMonitor] = None
    jobs: "SimpleQueue[Any]" = SimpleQueue()
    threads: List[threading.Thread] = []
    # numpy's import, started once the lanes have masked enough (_serve)
    loader = threading.Thread(target=load_word_mask, name="mask-loader", daemon=True)

    def send(record: Dict[str, Any]) -> None:
        endpoint.write(ws.wrap(wire.encode(record)))

    try:
        send({"kind": HELLO, "version": WIRE_VERSION, "name": name, "tabs": tabs})
        deadline = loop.timers.call_later(
            connect_timeout,
            endpoint.fail,
            TimeoutError(f"no welcome within {connect_timeout}s"),
        )
        first = next_message(loop, endpoint)
        deadline.cancel()
        if isinstance(first, (ProtocolError, TimeoutError)):
            raise first
        if isinstance(first, Exception):
            raise ConnectionClosed("master closed the connection during the handshake")
        # Plain pickle by declaration: the welcome may carry the function
        # itself, and a volunteer runs its master's code by design.
        welcome = wire.decode(first, trusted=True)[0]
        if welcome.get("kind") == END:
            # Refused: the stream had already terminated when we knocked.
            # Nothing to do and nothing went wrong — go home cleanly.
            report.graceful = True
            return report
        if welcome.get("kind") != WELCOME:
            raise ProtocolError(f"expected a welcome frame, got {welcome.get('kind')!r}")
        report.worker_id = welcome.get("worker_id")
        ref = fn_ref if fn_ref is not None else welcome.get("fn_ref")
        if ref is None:
            raise PandoError(
                "the master supplied no function reference and none was given "
                "locally (pass fn_ref= / --module / --app / --fn)"
            )
        resolve_callable(ref)  # fail during the handshake, not on frame one

        def suspect_master() -> None:
            report.suspected_master = True
            report.error = "the master went silent"
            endpoint.fail(ConnectionClosed("the master went silent"))

        monitor = HeartbeatMonitor(
            loop.timers,
            send=lambda: endpoint.write(ws.ping()),
            on_failure=suspect_master,
            interval=float(welcome.get("heartbeat_interval") or DEFAULT_INTERVAL),
            timeout=float(welcome.get("heartbeat_timeout") or DEFAULT_TIMEOUT),
        )
        endpoint.touch = monitor.touch
        monitor.start()

        run = functools.partial(run_batch, ref)  # run(values, trace)
        for index in range(tabs):
            thread = threading.Thread(
                target=_tab, args=(jobs, run, loop), name=f"tab-{index}", daemon=True
            )
            thread.start()
            threads.append(thread)
        end_received = _serve(loop, endpoint, jobs, report, max_frames, loader)
        monitor.stop()
        if report.error is None:
            if end_received or max_frames is not None:
                send({"kind": BYE})
                endpoint.write(ws.close())
                # the bye is said once the socket took it
                until = time.monotonic() + connect_timeout
                while endpoint.outbox and time.monotonic() < until:
                    loop.run_once(until - time.monotonic())
                report.graceful = True
            else:
                report.error = "connection lost before the stream ended"
    except Exception as exc:
        if report.error is None:
            report.error = repr(exc)
    finally:
        if monitor is not None:
            monitor.stop()
        # frames nobody will answer any more are not computed
        try:
            while True:
                jobs.get_nowait()
        except Empty:
            pass
        for _ in threads:
            jobs.put(None)
        for thread in threads:
            thread.join()
        if loader.ident is not None:
            loader.join()  # no process exits in the middle of an import
        report.pings_received = ws.pings_received
        report.pongs_received = ws.pongs_received
        endpoint.close()
    return report


def _serve(
    loop: Loop,
    endpoint: Endpoint,
    jobs: "SimpleQueue[Any]",
    report: VolunteerReport,
    max_frames: Optional[int],
    loader: threading.Thread,
) -> bool:
    """Hand the master's DATA frames to the tabs and write their answers in
    arrival order, until END (True), *max_frames* frames or the end of the
    wire — then until every frame handed out is answered — or a failed task.

    Each frame handed out has a slot (an empty list) on ``pending``, oldest
    first; its tab appends ``(parts, count, failure)`` and wakes the loop, so
    only the loop thread writes to the socket.  Once the answers written
    add up to :data:`_LANE_BYTES_BEFORE_IMPORT`, *loader* starts numpy's
    import, which turns the mask kernel from stride-4 lanes into one word
    XOR: a session pays for it only after it has delivered results, and one
    that answers little or nothing never does.
    """
    ws = endpoint.framing
    pending: Deque[List[Any]] = deque()
    submitted = 0
    answered_bytes = 0
    receiving = True
    end_received = False
    while receiving or pending:
        while pending and pending[0]:
            parts, count, failure = pending.popleft()[0]
            # Never waits: the master's Limiter bounds what can pile up in
            # the outbox to its window of frames.
            endpoint.write(ws.wrap(parts))
            if failure is not None:
                # The master has been told (a RESULT with ok false) and fails
                # this sub-stream: the session is over.
                report.error = f"task failed: {failure!r}"
                endpoint.fail(ConnectionClosed("a task failed"))
                return False
            answered_bytes += wire.payload_size(parts)
            if answered_bytes >= _LANE_BYTES_BEFORE_IMPORT and loader.ident is None:
                loader.start()
            report.frames_processed += 1
            report.values_processed += count
        if not (receiving and endpoint.inbox):
            if receiving or pending:
                loop.run_once(_IDLE_WAIT)
            continue
        message = endpoint.inbox.popleft()
        if isinstance(message, ProtocolError):
            raise message
        if isinstance(message, Exception):
            # the wire is done: a clean close, an EOF, a reset, a hang-up of
            # our own (the heartbeat's verdict)
            receiving = False
            continue
        record, values = wire.decode(message, trusted=True)
        kind = record.get("kind")
        if kind == wire.DATA:
            slot: List[Any] = []
            pending.append(slot)
            jobs.put((slot, record, values or []))
            submitted += 1
            if max_frames is not None and submitted >= max_frames:
                receiving = False
        elif kind == END:
            end_received = True
            receiving = False
        # unknown kinds are ignored (forward compatibility)
    return end_received


def _tab(jobs: "SimpleQueue[Any]", run: Any, loop: Loop) -> None:
    """One tab: compute and pack frames off *jobs* until a None."""
    while True:
        job = jobs.get()
        if job is None:
            return
        slot, record, values = job
        parts, failure = answer(run, record, values, error=repr)
        slot.append((parts, len(values), failure))
        loop.wake()


def _volunteer_process_main(url: str, kwargs: Dict[str, Any]) -> None:
    report = run_volunteer(url, **kwargs)
    # The exit status is the only channel the parent reliably sees.
    if report.error is not None:
        sys.exit(1)


def spawn_volunteer_process(
    url: str,
    fn_ref: Any = None,
    name: Optional[str] = None,
    tabs: int = 1,
    max_frames: Optional[int] = None,
    start: bool = True,
) -> multiprocessing.Process:
    """Run one :func:`run_volunteer` session in a child OS process.

    Uses the ``spawn`` start method, so the child imports this module fresh
    — no forked locks or loops — exactly like an external volunteer started
    from the shell.  *fn_ref* must then be picklable (dotted-name strings and
    ``("file", path)`` references are).  The returned process is a daemon:
    it cannot outlive the test or bench that spawned it.
    """
    context = multiprocessing.get_context("spawn")
    process = context.Process(
        target=_volunteer_process_main,
        args=(
            url,
            {"fn_ref": fn_ref, "name": name, "tabs": tabs, "max_frames": max_frames},
        ),
        daemon=True,
    )
    if start:
        process.start()
    return process


def main(argv: Optional[List[str]] = None) -> int:
    """``pando volunteer URL`` — join a live master from the command line."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pando volunteer",
        description=(
            "Join a running Pando master as a volunteer over a websocket "
            "and process values until the stream ends."
        ),
    )
    parser.add_argument("url", help="the master's gateway URL (ws://host:port)")
    parser.add_argument(
        "--module",
        help="Pando module file supplying the processing function locally "
        "(default: use the reference the master's welcome frame carries)",
    )
    parser.add_argument(
        "--app", help="use a built-in application's function instead of a module"
    )
    parser.add_argument(
        "--fn", help="dotted 'module:attribute' function reference"
    )
    parser.add_argument("--name", help="volunteer name announced to the master")
    parser.add_argument(
        "--tabs",
        type=int,
        default=1,
        help="worker threads, the equivalent of the paper's browser tabs",
    )
    parser.add_argument(
        "--max-frames",
        type=int,
        default=None,
        dest="max_frames",
        help="leave gracefully after answering this many frames",
    )
    args = parser.parse_args(argv)

    fn_ref: Any = None
    if args.module is not None:
        fn_ref = ("file", os.path.abspath(args.module))
    elif args.app is not None:
        from ..apps import registry as app_registry

        fn_ref = app_registry.create(args.app).process
    elif args.fn is not None:
        fn_ref = args.fn

    report = run_volunteer(
        args.url,
        fn_ref=fn_ref,
        name=args.name,
        tabs=args.tabs,
        max_frames=args.max_frames,
    )
    sys.stderr.write(
        f"volunteer {report.worker_id or '?'}: processed "
        f"{report.values_processed} value(s) in {report.frames_processed} "
        f"frame(s)\n"
    )
    if report.error is not None:
        sys.stderr.write(f"volunteer error: {report.error}\n")
        return 1
    return 0
