"""Simulated duplex message channels exposed as pull-streams.

A :class:`SimChannel` connects two :class:`ChannelEndpoint` objects — one on
the master's host, one on the volunteer's host.  Each endpoint exposes a
pull-stream :class:`~repro.pullstream.duplex.Duplex`:

* its **sink** eagerly drains the values produced upstream and sends each as
  a data frame to the peer (this eagerness is exactly why Pando needs the
  ``Limiter`` module in front of the channel, paper section 2.4.3);
* its **source** produces the payloads received from the peer.

Frames are delivered through the discrete-event scheduler after the delay
computed by the :class:`~repro.sim.network.NetworkModel` for the pair of
hosts, so latency, jitter and payload size all influence timing.  Endpoints
run a :class:`~repro.net.heartbeat.HeartbeatMonitor`; an endpoint that
crashes (crash-stop) simply goes silent and the peer discovers the failure
through the heartbeat timeout, erroring its source — which is how the failure
reaches StreamLender.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..errors import ConnectionClosed
from ..pullstream.duplex import Duplex
from ..pullstream.protocol import DONE, Callback, End, Source, is_error
from ..pullstream.pushable import Pushable
from ..pullstream.sinks import eager_pump
from ..sim.network import NetworkModel
from ..sim.scheduler import Scheduler
from .heartbeat import DEFAULT_INTERVAL, DEFAULT_TIMEOUT, HeartbeatMonitor
from .message import CLOSE, CONTROL, DATA, HEARTBEAT, Message
from .serialization import Batch

__all__ = ["ChannelEndpoint", "SimChannel"]


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

    def close(self, reason: Optional[str] = None) -> None:
        """Gracefully close the whole connection: notify the peer and stop."""
        if self.closed:
            return
        self._transmit(
            Message.close(sender=self.label, reason={"half": False, "reason": reason})
        )
        self._shutdown(None)

    def close_write(self, reason: Optional[str] = None) -> None:
        """Half-close: no more data will be sent, but receiving continues.

        Used when the local producer's stream ended while results from the
        peer may still be in flight (the peer learns through the close frame
        that no further inputs are coming).
        """
        if self.closed or self._write_closed:
            return
        self._write_closed = True
        self._transmit(
            Message.close(sender=self.label, reason={"half": True, "reason": reason})
        )
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
                self.close(reason="consumer aborted")
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
            self.close_write(reason="producer ended")
        elif not self.closed:
            self.close(reason=f"producer error: {end!r}")

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
        self._transmit(Message.data(payload, sender=self.label))

    def send_control(self, payload: Any) -> None:
        """Send a control frame (signalling) to the peer."""
        self._transmit(Message.control(payload, sender=self.label))

    def _send_heartbeat(self) -> None:
        self._transmit(Message.heartbeat(sender=self.label))

    def _transmit(self, message: Message) -> None:
        if self.closed and message.kind != CLOSE:
            return
        peer = self.peer
        if peer is None:
            return
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        delay = self.channel.message_delay(self.host, peer.host, message.size_bytes)
        # WebSocket and WebRTC data channels are ordered transports: a frame
        # never overtakes one sent before it, even when jitter would make its
        # raw propagation delay shorter.
        arrival = max(
            self.channel.scheduler.now + delay, self._last_arrival + 1e-9
        )
        self._last_arrival = arrival
        self.channel.scheduler.call_at(arrival, peer._receive, message)

    def _receive(self, message: Message) -> None:
        if self.closed:
            return
        self.messages_received += 1
        self.heartbeat.touch()
        if message.kind == HEARTBEAT:
            return
        if message.kind == CLOSE:
            half = isinstance(message.payload, dict) and message.payload.get("half")
            if half:
                # The peer will send no more data; results we still owe it can
                # continue to flow until our own producer ends too.
                self._read_ended = True
                self._incoming.end()
                if self._write_closed:
                    self._shutdown(None)
            else:
                self._shutdown(None)
            return
        if message.kind == DATA:
            self._incoming.push(message.payload)
            for listener in list(self._receive_listeners):
                listener(message.payload)
            return
        if message.kind == CONTROL:
            self.channel.on_control(self, message.payload)
            return

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
    """A bidirectional connection between two hosts.

    Subclasses (:class:`~repro.net.websocket.WebSocketConnection`,
    :class:`~repro.net.webrtc.WebRTCConnection`) model protocol-specific
    connection establishment; the base class provides the two endpoints and
    frame delivery.
    """

    #: extra one-way trips required to establish the connection
    SETUP_ROUND_TRIPS = 1.0
    protocol = "sim"

    def __init__(
        self,
        scheduler: Scheduler,
        network: NetworkModel,
        local_host: str,
        remote_host: str,
        heartbeat_interval: float = DEFAULT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_TIMEOUT,
        heartbeats_enabled: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.network = network
        self.id = next(network.channel_ids)
        self.local = ChannelEndpoint(
            self,
            host=local_host,
            label=f"{self.protocol}-{self.id}:{local_host}",
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            heartbeats_enabled=heartbeats_enabled,
        )
        self.remote = ChannelEndpoint(
            self,
            host=remote_host,
            label=f"{self.protocol}-{self.id}:{remote_host}",
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            heartbeats_enabled=heartbeats_enabled,
        )
        self.local.peer = self.remote
        self.remote.peer = self.local
        self.established = False
        self.established_at: Optional[float] = None
        #: when set, every frame is relayed through this host (TURN-style),
        #: paying the latency of both hops instead of the direct path.
        self.relay_host: Optional[str] = None

    def message_delay(self, sender: str, receiver: str, size_bytes: int) -> float:
        """Delivery delay of one frame, accounting for an optional relay."""
        if self.relay_host is None:
            return self.network.delay(sender, receiver, size_bytes)
        return self.network.delay(sender, self.relay_host, size_bytes) + self.network.delay(
            self.relay_host, receiver, size_bytes
        )

    # ------------------------------------------------------------------ API
    def connect(self, cb: Callable[[Optional[BaseException], "SimChannel"], None]) -> None:
        """Establish the connection, then call ``cb(err, channel)``.

        The base implementation charges ``SETUP_ROUND_TRIPS`` round trips of
        latency between the two hosts.
        """
        profile = self.network.profile(self.local.host, self.remote.host)
        setup_delay = self.SETUP_ROUND_TRIPS * profile.rtt

        def established() -> None:
            self.established = True
            self.established_at = self.scheduler.now
            self.local.start()
            self.remote.start()
            cb(None, self)

        self.scheduler.call_later(setup_delay, established)

    def on_control(self, endpoint: ChannelEndpoint, payload: Any) -> None:
        """Hook for subclasses that exchange control frames (signalling)."""

    def close(self) -> None:
        """Close both endpoints gracefully."""
        self.local.close()
        self.remote.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<{type(self).__name__} #{self.id} "
            f"{self.local.host}<->{self.remote.host} established={self.established}>"
        )
