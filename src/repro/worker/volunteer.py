"""Volunteers: devices that contribute compute to a deployment.

Two kinds live here:

* :class:`SimVolunteer` owns a simulated device and opens one browser tab
  per core it contributes (the paper uses "the minimum number of cores that
  provided close to the maximum performance", listed in Table 2).  Joining a
  deployment mirrors the paper's workflow: open the URL, download the worker
  code, establish a WebSocket or WebRTC channel per tab, process values
  until the stream ends, the device crashes, or the volunteer leaves.
* :func:`run_volunteer` is the **real** volunteer: an external OS process
  that dials a master's :class:`~repro.net.ws_transport.WsVolunteerGateway`
  URL over an actual websocket, downloads the function reference from the
  welcome frame (the paper's "volunteers download the code from the
  master"), and processes DATA frames on a small thread pool — one thread
  per "tab" — until the master says END, the process is told to stop, or
  the wire dies.  Its end of the websocket is the same
  :class:`~repro.net.endpoint.Endpoint` the gateway holds the other end
  with, on this process's own asyncio loop: it keeps that loop (and the tab
  threads) because it must answer pings while a tab computes, and is the
  one module of the package that imports asyncio.  :func:`connect_websocket`
  is its client half of the upgrade.  ``pando volunteer ws://host:port``
  (see :func:`main`) wraps it for the command line.
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import functools
import multiprocessing
import os
import socket
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.annotations import any_thread
from ..devices.device import SimDevice
from ..devices.profiles import DeviceProfile
from ..errors import ConnectionClosed, PandoError, ProtocolError
from ..master.bundler import Bundle
from ..net.channel import ChannelEndpoint
from ..net import wire
from ..net.endpoint import DEFAULT_MAX_FRAME, HTTP_HEAD, WS, Endpoint
from ..net.heartbeat import DEFAULT_INTERVAL, DEFAULT_TIMEOUT, HeartbeatMonitor, LoopClock
from ..net.signaling import PublicServer
from ..net.ws_transport import (
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
from ..sim.metrics import MetricsCollector
from ..sim.scheduler import Scheduler
from .worker import BrowserTab

__all__ = [
    "SimVolunteer",
    "VolunteerReport",
    "connect_websocket",
    "run_volunteer",
    "spawn_volunteer_process",
    "main",
]


class SimVolunteer:
    """A volunteer contributing the browser tabs of one device."""

    def __init__(
        self,
        profile: DeviceProfile,
        scheduler: Scheduler,
        host: Optional[str] = None,
        tabs: Optional[int] = None,
        device_name: Optional[str] = None,
    ) -> None:
        self.profile = profile
        self.scheduler = scheduler
        self.host = host or profile.name
        # device_name distinguishes rejoin incarnations of the same host:
        # the master never reuses a worker id, so each return needs its own.
        self.device = SimDevice(profile, scheduler, name=device_name)
        self.requested_tabs = tabs if tabs is not None else profile.cores
        self.tabs: Dict[int, BrowserTab] = {}
        self.joined = False
        self.crashed = False
        self.left = False
        self.device.on_crash(lambda _device: self._crash_tabs())

    # ------------------------------------------------------------------ join
    def join(self, scenario) -> None:
        """Join a deployment directly (same LAN / VPN as the master)."""
        self.joined = True
        scenario.accept_volunteer(self)

    def join_url(self, url: str, public_server: PublicServer) -> None:
        """Join a deployment by opening its public URL (WAN scenario)."""
        self.joined = True
        public_server.join(
            url,
            volunteer_host=self.host,
            info={"volunteer": self},
        )

    def attach_tab(
        self,
        tab_index: int,
        endpoint: ChannelEndpoint,
        bundle: Bundle,
        metrics: Optional[MetricsCollector] = None,
    ) -> BrowserTab:
        """Called by the master once a channel for one tab is established."""
        tab = self.tabs.get(tab_index)
        if tab is None:
            tab = BrowserTab(self.device, tab_index)
            self.tabs[tab_index] = tab
        if self.crashed:
            # The device crashed while the connection was being established.
            endpoint.crash()
            return tab
        if self.left:
            # The volunteer left while the connection was being established:
            # the late tab says goodbye like the others did.
            endpoint.close()
            return tab
        tab.attach(endpoint, bundle, metrics)
        return tab

    # --------------------------------------------------------------- failure
    def crash(self) -> None:
        """Crash-stop the whole device: every tab goes silent at once."""
        if self.crashed:
            return
        self.crashed = True
        self.device.crash()

    def leave(self) -> None:
        """Leave gracefully: close every tab so the master is notified."""
        self.left = True
        for tab in self.tabs.values():
            tab.close()

    def _crash_tabs(self) -> None:
        self.crashed = True
        for tab in self.tabs.values():
            tab.crash()

    # ----------------------------------------------------------- inspection
    @property
    def items_processed(self) -> int:
        """Total values processed across this volunteer's tabs."""
        return sum(tab.items_processed for tab in self.tabs.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = (
            "crashed" if self.crashed
            else "left" if self.left
            else "joined" if self.joined
            else "idle"
        )
        return (
            f"<SimVolunteer {self.profile.name} {state} tabs={len(self.tabs)} "
            f"processed={self.items_processed}>"
        )


# ==========================================================================
# Real websocket volunteers
# ==========================================================================


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
    a pool of *tabs* threads so several frames overlap, answered strictly
    in arrival order (the contract of the master's Limiter) — until the
    master sends END (or *max_frames* frames were answered, the
    leave-early case), then bye and a clean close.  *fn_ref* overrides the
    master-supplied function reference — any form
    :func:`~repro.pool.tasks.resolve_callable` accepts; at least one side
    must provide one.  Liveness is symmetric: the volunteer answers the
    master's pings automatically and runs its own
    :class:`~repro.net.heartbeat.HeartbeatMonitor`, abandoning a master
    that has gone silent (``suspected_master`` in the returned report).

    Blocks until the session ends (it owns the process — use
    :func:`spawn_volunteer_process` to run one in a child process) and
    never raises on wire or task trouble: the report's ``error`` carries it.
    """
    return asyncio.run(
        _volunteer_session(
            url,
            fn_ref=fn_ref,
            name=name,
            tabs=max(1, tabs),
            max_frames=max_frames,
            connect_timeout=connect_timeout,
        )
    )


async def connect_websocket(
    url: str, timeout: float = 10.0, max_frame: int = DEFAULT_MAX_FRAME
) -> Tuple[Endpoint, "asyncio.Queue[Any]"]:
    """Open and upgrade a client connection to *url* (``ws://host:port``).

    Returns the connection — an :class:`~repro.net.endpoint.Endpoint` with the
    client side's :class:`~repro.net.endpoint.WS` framing, read and flushed
    by the running asyncio loop — and the queue everything it files arrives
    on: each message, then the exception its stream ended with.
    """
    host, port, path = parse_ws_url(url)
    loop = asyncio.get_running_loop()
    # off the loop: resolves, and tries every address, under the one timeout
    sock = await loop.run_in_executor(None, socket.create_connection, (host, port), timeout)
    # frames are written whole; waiting to coalesce them only adds latency
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    endpoint = Endpoint(sock, HTTP_HEAD)
    messages: "asyncio.Queue[Any]" = asyncio.Queue()

    def on_filed(endpoint: Endpoint) -> None:
        while endpoint.inbox:
            messages.put_nowait(endpoint.inbox.popleft())

    try:
        endpoint.watch(loop, on_filed)
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
        response = await asyncio.wait_for(messages.get(), timeout)
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
    endpoint.framing = WS(client_side=True, max_frame=max_frame)
    return endpoint, messages


async def _volunteer_session(
    url: str,
    fn_ref: Any,
    name: Optional[str],
    tabs: int,
    max_frames: Optional[int],
    connect_timeout: float,
) -> VolunteerReport:
    loop = asyncio.get_running_loop()
    report = VolunteerReport()
    try:
        endpoint, messages = await connect_websocket(url, timeout=connect_timeout)
    except Exception as exc:
        report.error = f"connect failed: {exc!r}"
        return report
    ws = endpoint.framing
    monitor: Optional[HeartbeatMonitor] = None

    def send(record: Dict[str, Any]) -> None:
        endpoint.write(ws.wrap(wire.encode(record)))

    async def receive() -> Optional[Any]:
        """The master's next message, decoded; None once the wire is done (a
        clean close, an EOF, a reset, a hang-up of our own)."""
        message = await messages.get()
        if isinstance(message, ProtocolError):
            raise message
        if isinstance(message, Exception):
            return None
        # Plain pickle by declaration: the welcome may carry the function
        # itself, and a volunteer runs its master's code by design.
        return wire.decode(message, trusted=True)

    try:
        send({"kind": HELLO, "version": WIRE_VERSION, "name": name, "tabs": tabs})
        first = await asyncio.wait_for(receive(), connect_timeout)
        if first is None:
            raise ConnectionClosed("master closed the connection during the handshake")
        welcome = first[0]
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
            endpoint.fail(ConnectionClosed("the master went silent"))

        monitor = HeartbeatMonitor(
            LoopClock(loop),
            send=lambda: endpoint.write(ws.ping()),
            on_failure=suspect_master,
            interval=float(welcome.get("heartbeat_interval") or DEFAULT_INTERVAL),
            timeout=float(welcome.get("heartbeat_timeout") or DEFAULT_TIMEOUT),
        )
        endpoint.touch = monitor.touch
        monitor.start()

        results: "asyncio.Queue[Optional[asyncio.Future]]" = asyncio.Queue()
        end_received = False

        run = functools.partial(run_batch, ref)  # run(values, trace)

        def tab_job(record: Dict[str, Any], values: List[Any]) -> tuple:
            """One frame in a tab thread: computed *and* packed there."""
            parts, failure = answer(run, record, values, error=repr)
            return parts, len(values), failure

        async def send_results() -> None:
            """Write the packed answers strictly in arrival order."""
            while True:
                future = await results.get()
                if future is None:
                    return
                parts, count, failure = await future
                # Never waits: the master's Limiter bounds what can pile up
                # in the outbox to its window of frames.
                endpoint.write(ws.wrap(parts))
                if failure is not None:
                    # The master has been told (a RESULT with ok false) and
                    # fails this sub-stream: the session is over.
                    report.error = f"task failed: {failure!r}"
                    endpoint.fail(ConnectionClosed("a task failed"))
                    return
                report.frames_processed += 1
                report.values_processed += count

        with ThreadPoolExecutor(max_workers=tabs) as executor:
            sender = asyncio.ensure_future(send_results())
            submitted = 0
            try:
                while True:
                    frame = await receive()
                    if frame is None:
                        break
                    record, values = frame
                    kind = record.get("kind")
                    if kind == wire.DATA:
                        await results.put(
                            loop.run_in_executor(executor, tab_job, record, values or [])
                        )
                        submitted += 1
                        if max_frames is not None and submitted >= max_frames:
                            break
                    elif kind == END:
                        end_received = True
                        break
                    # unknown kinds are ignored (forward compatibility)
            finally:
                await results.put(None)
                await sender
        monitor.stop()
        if report.error is None and not report.suspected_master:
            if end_received or max_frames is not None:
                send({"kind": BYE})
                endpoint.write(ws.close())
                # the bye is said once the socket took it
                deadline = loop.time() + connect_timeout
                while endpoint.outbox and loop.time() < deadline:
                    await asyncio.sleep(0.001)
                report.graceful = True
            else:
                report.error = "connection lost before the stream ended"
    except Exception as exc:
        if report.error is None:
            report.error = repr(exc)
    finally:
        if monitor is not None:
            monitor.stop()
        report.pings_received = ws.pings_received
        report.pongs_received = ws.pongs_received
        endpoint.close()
    return report


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
    — no forked locks or event loops — exactly like an external volunteer
    started from the shell.  *fn_ref* must then be picklable (dotted-name
    strings and ``("file", path)`` references are).  The returned process is
    a daemon: it cannot outlive the test or bench that spawned it.
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
        import os

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
