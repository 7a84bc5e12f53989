"""Limiter — bound the number of in-flight values on a duplex channel.

The paper (section 2.4.3) explains the role of this module: the pull-stream
adapters around WebSocket/WebRTC eagerly read every available value on the
sending side, so without a bound a fast master would push the entire input
stream to the first worker.  ``Limiter`` lets through an initial window of
``limit`` values and then admits one new value for each result that comes
back.  With a window of 2 or more, transfers overlap with computation and the
network latency is hidden (paper sections 5.2-5.5, "batch size").
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ProtocolError
from ..pullstream.duplex import Duplex
from ..pullstream.protocol import DONE, Callback, End, Source, is_error

__all__ = ["Limiter", "limit"]


class Limiter:
    """Wrap a duplex *channel* so at most *limit* values are in flight.

    The object can be used in two equivalent ways:

    * as a pull-stream **through** (paper Figure 9)::

          pull(sub.source, Limiter(channel, 2), sub.sink)

    * as a duplex of its own, exposing ``source`` and ``sink`` attributes.

    "In flight" counts values that were forwarded to the channel's sink and
    whose corresponding result has not yet been read from the channel's
    source.  The counter assumes the channel answers one result per input, in
    order, which is what Pando's workers do.
    """

    pull_role = "through"

    __slots__ = (
        "channel",
        "limit",
        "_in_flight",
        "_max_in_flight",
        "_gated_ask",
        "_upstream",
        "_ended",
        "_upstream_cb",
        "_channel_cb",
    )

    def __init__(self, channel: Duplex, limit: int = 1) -> None:
        if limit < 1:
            raise ValueError("Limiter window must be >= 1")
        self.channel = channel
        self.limit = limit
        self._in_flight = 0
        self._max_in_flight = 0
        #: the channel sink's ask waiting for the window to open
        self._gated_ask: Optional[Callback] = None
        self._upstream: Optional[Source] = None
        self._ended: End = None
        #: the channel sink's ask forwarded upstream (it asks one at a time)
        self._upstream_cb: Optional[Callback] = None
        #: the downstream's ask forwarded to the channel's source
        self._channel_cb: Optional[Callback] = None

    # ------------------------------------------------------------------ API
    def __call__(self, read: Source) -> Source:
        """Through-style usage: feed *read* into the channel, return results."""
        self.sink(read)
        return self.source

    @property
    def in_flight(self) -> int:
        """Number of values currently inside the channel window."""
        return self._in_flight

    @property
    def max_in_flight(self) -> int:
        """High-water mark of the window (used by tests and benches)."""
        return self._max_in_flight

    # ----------------------------------------------------------- sink side
    def sink(self, read: Source) -> None:
        if self._upstream is not None:
            raise ProtocolError("Limiter sink connected twice")
        self._upstream = read
        self.channel.sink(self._gated_read)

    sink.pull_role = "sink"

    def _gated_read(self, end: End, cb: Callback) -> None:
        """The source handed to the channel's sink: upstream, but gated."""
        if end is not None:
            assert self._upstream is not None
            self._upstream(end, cb)
            return
        if self._ended is not None:
            cb(self._ended, None)
            return
        if self._in_flight >= self.limit:
            if self._gated_ask is not None:
                cb(ProtocolError("Limiter asked twice concurrently"), None)
                return
            self._gated_ask = cb
            return
        self._forward_upstream(cb)

    def _forward_upstream(self, cb: Callback) -> None:
        assert self._upstream is not None
        self._upstream_cb = cb
        self._upstream(None, self._upstream_answer)

    def _upstream_answer(self, end: End, value: Any) -> None:
        cb, self._upstream_cb = self._upstream_cb, None
        if end is not None:
            self._terminate(end)
            cb(self._ended, None)
            return
        self._in_flight += 1
        if self._in_flight > self._max_in_flight:
            self._max_in_flight = self._in_flight
        cb(None, value)

    # --------------------------------------------------------- source side
    def source(self, end: End, cb: Callback) -> None:
        if end is not None:
            self._terminate(end)
            self.channel.source(end, cb)
            return
        self._channel_cb = cb
        self.channel.source(None, self._channel_answer)

    source.pull_role = "source"

    def _channel_answer(self, end: End, value: Any) -> None:
        cb, self._channel_cb = self._channel_cb, None
        if end is None:
            self._in_flight = max(0, self._in_flight - 1)
            self._release_gate()
        else:
            # The channel's result stream terminated (worker done or
            # crashed): the window will never reopen, so a parked
            # gated ask must be failed/released too — otherwise the
            # channel sink waits forever and the callback leaks.
            self._terminate(end)
        cb(end, value)

    def _release_gate(self) -> None:
        if self._gated_ask is None or self._in_flight >= self.limit:
            return
        cb, self._gated_ask = self._gated_ask, None
        self._forward_upstream(cb)

    def _terminate(self, end: End) -> None:
        """Record termination and answer any parked gated ask with it."""
        if self._ended is None:
            self._ended = end if is_error(end) else DONE
        if self._gated_ask is not None:
            gated_cb, self._gated_ask = self._gated_ask, None
            gated_cb(self._ended, None)


def limit(channel: Duplex, n: int = 1) -> Limiter:
    """Functional constructor mirroring the JS ``pull-limit`` module."""
    return Limiter(channel, n)
