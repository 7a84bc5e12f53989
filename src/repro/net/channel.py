"""The simulated volunteer connection, exposed as a pull-stream duplex.

A :class:`SimChannel` connects two :class:`ChannelEndpoint` objects — one on
the master's host, one on the volunteer's host — over one of the paper's two
transports.  The simulator models only what Pando relies on from either:
the connection's setup cost and its ordered, latency-charged frames.  The
setup cost is one row of :data:`TRANSPORTS`:

* a WebSocket (LAN, VPN) costs a TCP handshake plus the HTTP upgrade, two
  round trips on the direct path;
* a WebRTC data channel (the WAN setting, paper section 5.4) first relays
  offer/answer and ICE candidates through the
  :class:`~repro.net.signaling.PublicServer` (two relayed round trips, when
  the deployment has a server), then pays ICE checks plus the DTLS handshake,
  1.5 round trips on the direct path.

Each endpoint exposes a pull-stream :class:`~repro.pullstream.duplex.Duplex`:

* its **sink** eagerly drains the values produced upstream and sends each as
  a data frame to the peer (this eagerness is exactly why Pando needs the
  ``Limiter`` module in front of the channel, paper section 2.4.3);
* its **source** produces the payloads received from the peer.

A frame is a timer on the discrete-event scheduler, ``peer._receive(kind,
payload)`` at the arrival time the :class:`~repro.sim.network.NetworkModel`
computes for the pair of hosts, so latency, jitter and payload size all
influence timing.  Endpoints run a
:class:`~repro.net.heartbeat.HeartbeatMonitor`; an endpoint that crashes
(crash-stop) simply goes silent and the peer discovers the failure through
the heartbeat timeout, erroring its source — which is how the failure
reaches StreamLender.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional

from ..errors import ConnectionClosed
from ..pullstream.duplex import Duplex
from ..pullstream.protocol import DONE, Callback, End, Source, is_error
from ..pullstream.pushable import Pushable
from ..pullstream.sinks import eager_pump
from ..sim.network import NetworkModel
from ..sim.scheduler import Scheduler
from .heartbeat import DEFAULT_INTERVAL, DEFAULT_TIMEOUT, HeartbeatMonitor
from .serialization import Batch, estimate_size
from .signaling import PublicServer

__all__ = ["ChannelEndpoint", "SimChannel", "TRANSPORTS"]

#: per transport: the channel label's prefix, the setup round trips on the
#: direct path, and the signalling round trips relayed through the public
#: server before it (none when the deployment has no server)
TRANSPORTS = {"websocket": ("ws", 2.0, 0), "webrtc": ("rtc", 1.5, 2)}

#: frame kinds; a heartbeat is charged 8 bytes on the wire, a close 16 and a
#: data frame its payload's estimated size, at least 16
DATA = "data"
HEARTBEAT = "heartbeat"
CLOSE = "close"


class ChannelEndpoint:
    """One side of a simulated connection."""

    def __init__(
        self,
        channel: "SimChannel",
        host: str,
        label: str,
        heartbeat_interval: float = DEFAULT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_TIMEOUT,
        heartbeats_enabled: bool = True,
    ) -> None:
        self.channel = channel
        self.host = host
        self.label = label
        self.peer: Optional["ChannelEndpoint"] = None
        self.closed = False
        self.crashed = False
        self.close_reason: Optional[BaseException] = None
        #: the peer closed the whole connection (it left), as opposed to the
        #: two half-closes of a stream that ran out of data
        self.peer_closed = False
        self._incoming = Pushable()
        self._outgoing_aborted = False
        self._last_arrival = 0.0
        #: the local producer finished (half-closed, no more data sent)
        self._write_closed = False
        #: the peer announced it will send no more data
        self._read_ended = False
        self.duplex = Duplex(source=self._source_read, sink=self._sink)
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        #: DATA frames sent, and stream values they carried (a batched frame
        #: carries several values — the framing amortisation tests compare
        #: these two counters).
        self.data_frames_sent = 0
        self.values_sent = 0
        self._close_listeners: List[Callable[[Optional[BaseException]], None]] = []
        self._receive_listeners: List[Callable[[Any], None]] = []
        self._heartbeats_enabled = heartbeats_enabled
        #: a :class:`~repro.obs.TraceLog` when the deployment attached one;
        #: heartbeat failures then emit heartbeat_suspicion trace events
        self.trace: Optional[Any] = None
        self.heartbeat = HeartbeatMonitor(
            channel.scheduler,
            send=self._send_heartbeat,
            on_failure=self._on_heartbeat_failure,
            interval=heartbeat_interval,
            timeout=heartbeat_timeout,
        )

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Begin heartbeating (called once the connection is established)."""
        if self._heartbeats_enabled:
            self.heartbeat.start()

    def close(self) -> None:
        """Gracefully close the whole connection: notify the peer and stop."""
        if self.closed:
            return
        self._transmit(CLOSE, False, 16)
        self._shutdown(None)

    def close_write(self) -> None:
        """Half-close: no more data will be sent, but receiving continues.

        Used when the local producer's stream ended while results from the
        peer may still be in flight (the peer learns through the close frame
        that no further inputs are coming).
        """
        if self.closed or self._write_closed:
            return
        self._write_closed = True
        self._transmit(CLOSE, True, 16)
        if self._read_ended:
            self._shutdown(None)

    def crash(self) -> None:
        """Crash-stop: go silent without notifying the peer.

        The peer only finds out through its heartbeat timeout.
        """
        if self.closed:
            return
        self.crashed = True
        self._shutdown(ConnectionClosed(f"{self.label} crashed"), notify_source=False)

    def teardown(self) -> None:
        """Close this end where it stands, with no frame on the wire (the
        deployment it belongs to went away): heartbeats stop, the source
        ends and the close listeners run, as on a graceful close."""
        self._shutdown(None)

    def on_close(self, listener: Callable[[Optional[BaseException]], None]) -> None:
        """Register *listener* to run when this endpoint closes or fails."""
        self._close_listeners.append(listener)

    def on_receive(self, listener: Callable[[Any], None]) -> None:
        """Register ``listener(payload)`` for every DATA frame delivered.

        Fires after the payload entered the endpoint's incoming buffer, i.e.
        once the value is visible to the pull side.  The event-loop
        interleaving benches use this to trace a channel's progress next to
        the pools sharing the loop; metrics collectors can hook it without
        wrapping the duplex.
        """
        self._receive_listeners.append(listener)

    def _shutdown(
        self, reason: Optional[BaseException], notify_source: bool = True
    ) -> None:
        if self.closed:
            return
        self.closed = True
        self.close_reason = reason
        self.heartbeat.stop()
        if notify_source:
            if reason is None:
                self._incoming.end()
            else:
                self._incoming.error(reason)
        for listener in list(self._close_listeners):
            listener(reason)

    # ------------------------------------------------------- pull interfaces
    def _source_read(self, end: End, cb: Callback) -> None:
        """Source half: deliver received payloads to the local consumer."""
        if end is not None:
            # The local consumer aborts: close the connection.
            if not self.closed:
                self.close()
            self._incoming(end, cb)
            return
        self._incoming(None, cb)

    _source_read.pull_role = "source"

    def _sink(self, read: Source) -> None:
        """Sink half: eagerly read local values and send them to the peer."""
        eager_pump(
            read,
            on_value=self.send,
            on_end=self._producer_ended,
            closed_reason=self._sink_closed_reason,
        )

    _sink.pull_role = "sink"

    def _producer_ended(self, end: End) -> None:
        # Local producer finished: half-close so results still in flight
        # from the peer can be received; a producer error closes the whole
        # connection.
        if not self.closed and not is_error(end):
            self.close_write()
        elif not self.closed:
            self.close()

    def _sink_closed_reason(self) -> End:
        if not self.closed:
            return None
        return self.close_reason if self.close_reason is not None else DONE

    # ------------------------------------------------------------ messaging
    def send(self, payload: Any) -> None:
        """Send a data frame carrying *payload* (a value or a :class:`Batch`)."""
        if self.closed or self.peer is None:
            return  # dropped by _transmit anyway; keep the counters truthful
        self.data_frames_sent += 1
        self.values_sent += len(payload) if isinstance(payload, Batch) else 1
        self._transmit(DATA, payload, max(16, estimate_size(payload)))

    def _send_heartbeat(self) -> None:
        self._transmit(HEARTBEAT, None, 8)

    def _transmit(self, kind: str, payload: Any, size_bytes: int) -> None:
        if self.closed and kind != CLOSE:
            return
        peer = self.peer
        if peer is None:
            return
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        delay = self.channel.network.delay(self.host, peer.host, size_bytes)
        # WebSocket and WebRTC data channels are ordered transports: a frame
        # never overtakes one sent before it, even when jitter would make its
        # raw propagation delay shorter.
        arrival = max(
            self.channel.scheduler.now + delay, self._last_arrival + 1e-9
        )
        self._last_arrival = arrival
        self.channel.scheduler.call_at(arrival, peer._receive, kind, payload)

    def _receive(self, kind: str, payload: Any) -> None:
        if self.closed:
            return
        self.messages_received += 1
        self.heartbeat.touch()
        if kind == DATA:
            self._incoming.push(payload)
            for listener in list(self._receive_listeners):
                listener(payload)
        elif kind == CLOSE:
            if payload:
                # A half-close: the peer will send no more data; results we
                # still owe it can continue to flow until our own producer
                # ends too.
                self._read_ended = True
                self._incoming.end()
                if self._write_closed:
                    self._shutdown(None)
            else:
                self.peer_closed = True
                self._shutdown(None)

    def _on_heartbeat_failure(self) -> None:
        if self.trace is not None:
            self.trace.emit(
                "heartbeat_suspicion",
                peer=self.peer.label if self.peer else None,
                endpoint=self.label,
                timeout=self.heartbeat.timeout,
            )
        self._shutdown(
            ConnectionClosed(
                f"{self.label}: no heartbeat from {self.peer.label if self.peer else '?'} "
                f"within {self.heartbeat.timeout}s"
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "crashed" if self.crashed else ("closed" if self.closed else "open")
        return f"<ChannelEndpoint {self.label}@{self.host} {state}>"


class SimChannel:
    """A bidirectional connection between two hosts over *transport*, a key
    of :data:`TRANSPORTS` (``"websocket"``, Pando's default, or
    ``"webrtc"``); *signalling_server* relays a WebRTC connection's
    signalling."""

    def __init__(
        self,
        scheduler: Scheduler,
        network: NetworkModel,
        local_host: str,
        remote_host: str,
        transport: str = "websocket",
        signalling_server: Optional[PublicServer] = None,
        heartbeat_interval: float = DEFAULT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_TIMEOUT,
        heartbeats_enabled: bool = True,
    ) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of {sorted(TRANSPORTS)}"
            )
        prefix, self.setup_round_trips, signalling_round_trips = TRANSPORTS[transport]
        self.transport = transport
        self.scheduler = scheduler
        self.network = network
        self.signalling_server = signalling_server
        #: round trips relayed through the public server before the direct
        #: path comes up
        self.signalling_round_trips = (
            signalling_round_trips if signalling_server is not None else 0
        )
        self.id = next(network.channel_ids)
        self.local, self.remote = (
            ChannelEndpoint(
                self,
                host=host,
                label=f"{prefix}-{self.id}:{host}",
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout,
                heartbeats_enabled=heartbeats_enabled,
            )
            for host in (local_host, remote_host)
        )
        self.local.peer = self.remote
        self.remote.peer = self.local
        self.established = False
        self.established_at: Optional[float] = None

    # ------------------------------------------------------------------ API
    def connect(self, cb: Callable[[Optional[BaseException], "SimChannel"], None]) -> None:
        """Establish the connection, then call ``cb(None, channel)``.

        Each signalling round trip is one
        :meth:`~repro.net.signaling.PublicServer.relay_signal`; then the
        direct path costs the transport's setup round trips of the link's
        RTT.  A simulated connection always comes up.
        """
        self._signal(self.signalling_round_trips, cb)

    def _signal(self, round_trips: int, cb: Callable, _payload: Any = None) -> None:
        if round_trips:
            self.signalling_server.relay_signal(
                self.local.host,
                self.remote.host,
                "offer/answer",
                functools.partial(self._signal, round_trips - 1, cb),
            )
            return
        rtt = self.network.profile(self.local.host, self.remote.host).rtt
        self.scheduler.call_later(self.setup_round_trips * rtt, self._established, cb)

    def _established(self, cb: Callable) -> None:
        self.established = True
        self.established_at = self.scheduler.now
        self.local.start()
        self.remote.start()
        cb(None, self)

    def close(self) -> None:
        """Close both endpoints gracefully."""
        self.local.close()
        self.remote.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<SimChannel {self.transport} #{self.id} "
            f"{self.local.host}<->{self.remote.host} established={self.established}>"
        )
