"""Heartbeat-based failure detection.

Pando relies on the heartbeat mechanism of WebSocket and WebRTC to *suspect*
crash-stop failures under partial synchrony (paper section 2.3): if no
message or heartbeat is received from the peer within a time bound, the
connection is declared dead and the values lent to that worker are
re-submitted elsewhere.  :class:`HeartbeatMonitor` implements both sides of
this mechanism on top of any clock exposing ``now`` and
``call_later(delay, fn)``: the master loop's
:class:`~repro.sched.loop.Timers` (on a virtual clock for the simulated
channels, the real one for the live websocket gateway), or
:class:`LoopClock` over a volunteer process's asyncio loop.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["HeartbeatMonitor", "LoopClock", "DEFAULT_INTERVAL", "DEFAULT_TIMEOUT"]

#: Default heartbeat period in seconds (WebSocket ping interval).
DEFAULT_INTERVAL = 1.0
#: Default suspicion timeout in seconds (a few missed heartbeats).
DEFAULT_TIMEOUT = 3.0


class LoopClock:
    """``now`` and ``call_later`` over an asyncio-style loop (``time()`` and
    ``call_later``): what a volunteer process's monitor runs on."""

    def __init__(self, loop: Any) -> None:
        self._loop = loop

    @property
    def now(self) -> float:
        return self._loop.time()

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> Any:
        return self._loop.call_later(delay, callback, *args)


class HeartbeatMonitor:
    """Send periodic heartbeats and suspect the peer after a silence timeout.

    Parameters
    ----------
    scheduler:
        Any clock-and-timers provider: ``now`` (seconds) plus
        ``call_later(delay, fn)`` returning a cancellable handle — the
        loop's :class:`~repro.sched.loop.Timers` (a simulation
        :class:`~repro.sim.scheduler.Scheduler` is one), or a
        :class:`LoopClock`.
    send:
        Called every *interval* seconds to emit a heartbeat frame to the peer.
    on_failure:
        Called once when the peer has been silent for longer than *timeout*.
    interval / timeout:
        Heartbeat period and suspicion bound, in seconds.
    """

    def __init__(
        self,
        scheduler: Any,
        send: Callable[[], None],
        on_failure: Callable[[], None],
        interval: float = DEFAULT_INTERVAL,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        if interval <= 0 or timeout <= 0:
            raise ValueError("heartbeat interval and timeout must be positive")
        self.scheduler = scheduler
        self.interval = interval
        self.timeout = timeout
        self._send = send
        self._on_failure = on_failure
        self._last_seen = scheduler.now
        self._stopped = False
        self._failed = False
        #: cancellable timer handles (a loop Timer or an asyncio TimerHandle)
        self._send_event: Optional[Any] = None
        self._check_event: Optional[Any] = None

    # ------------------------------------------------------------------ API
    def start(self) -> None:
        """Begin (or restart) emitting heartbeats and checking for silence.

        Safe to call again on an already-running monitor — the reconnect
        path: the previous send/check timer chains are cancelled instead of
        stacking duplicates.  A monitor that was :meth:`stop`-ed, or that
        already suspected its peer, starts afresh (``failed`` resets), so one
        monitor instance can follow a connection through reconnections.
        """
        self._cancel_events()
        self._stopped = False
        self._failed = False
        self._last_seen = self.scheduler.now
        self._schedule_send()
        self._schedule_check()

    def stop(self) -> None:
        """Stop all timers (connection closed gracefully)."""
        self._stopped = True
        self._cancel_events()

    def _cancel_events(self) -> None:
        if self._send_event is not None:
            self._send_event.cancel()
            self._send_event = None
        if self._check_event is not None:
            self._check_event.cancel()
            self._check_event = None

    def touch(self) -> None:
        """Record that the peer was heard from (any frame counts)."""
        self._last_seen = self.scheduler.now

    @property
    def failed(self) -> bool:
        """True once the peer has been suspected."""
        return self._failed

    # ------------------------------------------------------------ internals
    def _schedule_send(self) -> None:
        if self._stopped or self._failed:
            return
        self._send_event = self.scheduler.call_later(self.interval, self._beat)

    def _beat(self) -> None:
        if self._stopped or self._failed:
            return
        self._send()
        self._schedule_send()

    def _schedule_check(self) -> None:
        if self._stopped or self._failed:
            return
        # Re-check shortly after the moment the timeout could first expire.
        delay = max(self.timeout - (self.scheduler.now - self._last_seen), 1e-6)
        self._check_event = self.scheduler.call_later(delay, self._check)

    def _check(self) -> None:
        if self._stopped or self._failed:
            return
        silence = self.scheduler.now - self._last_seen
        if silence >= self.timeout:
            self._failed = True
            self.stop()
            self._on_failure()
            return
        self._schedule_check()
