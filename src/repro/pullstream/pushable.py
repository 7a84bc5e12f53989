"""A push-style source with an internal buffer (``pull-pushable`` equivalent).

Network channels are push-based (messages arrive whenever the peer sends
them) while pull-streams are pull-based.  ``Pushable`` bridges the two: the
channel pushes received messages into the buffer, and downstream consumers
pull them out at their own pace.  Pando's WebSocket/WebRTC duplex adapters are
built on this bridge.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from ..analysis.annotations import loop_only
from .protocol import DONE, Callback, End

__all__ = ["Pushable", "pushable"]


class Pushable:
    """Buffered source that values can be pushed into.

    Use :meth:`push` to append a value, :meth:`end` to terminate the stream
    normally and :meth:`error` to terminate it with a failure.  The object
    itself is callable with the ``read(end, cb)`` signature so it can be used
    directly as a pull-stream source.
    """

    pull_role = "source"

    def __init__(self, on_close: Optional[Callable[[End], None]] = None) -> None:
        self._buffer: Deque[Any] = deque()
        self._ended: End = None
        self._waiting: Optional[Callback] = None
        self._on_close = on_close
        self._closed_notified = False

    # -- producer side -----------------------------------------------------
    @loop_only
    def push(self, value: Any) -> None:
        """Append *value*; delivered immediately if a consumer is waiting.

        Not thread-safe: foreign threads go through
        :class:`~repro.sched.sources.PushablePort` instead.
        """
        if self._ended is not None:
            return
        if self._waiting is not None:
            waiting, self._waiting = self._waiting, None
            waiting(None, value)
        else:
            self._buffer.append(value)

    @loop_only
    def end(self) -> None:
        """Terminate the stream normally once the buffer drains."""
        self._terminate(DONE)

    @loop_only
    def error(self, exc: BaseException) -> None:
        """Terminate the stream with an error once the buffer drains."""
        self._terminate(exc)

    def _terminate(self, end: End) -> None:
        if self._ended is not None:
            return
        self._ended = end
        if self._waiting is not None and not self._buffer:
            waiting, self._waiting = self._waiting, None
            waiting(end, None)
            self._notify_close(end)

    # -- consumer side ------------------------------------------------------
    def __call__(self, end: End, cb: Callback) -> None:
        if end is not None:
            # Downstream abort: drop buffered values and close.
            self._buffer.clear()
            if self._ended is None:
                self._ended = end if isinstance(end, BaseException) else DONE
            if self._waiting is not None:
                # A read parked before the abort (waiting for the producer)
                # must still receive its answer — callback discipline: every
                # ask gets exactly one reply, and the abort is that reply.
                waiting, self._waiting = self._waiting, None
                waiting(self._ended, None)
            cb(self._ended, None)
            self._notify_close(self._ended)
            return
        if self._buffer:
            cb(None, self._buffer.popleft())
            return
        if self._ended is not None:
            cb(self._ended, None)
            self._notify_close(self._ended)
            return
        if self._waiting is not None:
            cb(ValueError("pushable: concurrent reads are not allowed"), None)
            return
        self._waiting = cb

    # -- internals ----------------------------------------------------------
    def _notify_close(self, end: End) -> None:
        if self._closed_notified:
            return
        self._closed_notified = True
        if self._on_close is not None:
            self._on_close(end)

    @property
    def ended(self) -> bool:
        """True once the stream has been terminated by the producer or consumer."""
        return self._ended is not None

    @property
    def waiting(self) -> bool:
        """True while a read is parked, waiting for a push."""
        return self._waiting is not None

    @property
    def buffered(self) -> int:
        """Number of values currently waiting to be pulled."""
        return len(self._buffer)


def pushable(on_close: Optional[Callable[[End], None]] = None) -> Pushable:
    """Create a new :class:`Pushable` source."""
    return Pushable(on_close=on_close)
