"""Standard pull-stream sinks.

Sinks drive a source by repeatedly asking for values.  Because the simulated
network modules answer callbacks asynchronously (through the event loop), a
sink cannot always return its result synchronously; each sink therefore
returns a :class:`SinkResult` whose ``value`` becomes available once the
stream terminated, and accepts an optional ``done`` callback.

Every sink is :func:`eager_pump`, the one drain loop, which runs on the
pull-stream core's one trampoline (:class:`~repro.pullstream.loop.Loop`) so
long synchronous streams (ask -> answer -> ask -> ...) iterate instead of
exhausting Python's call stack.  A drain is one slots object, the loop and
its continuations in one: draining allocates no closure per stream and
nothing per value that outlives the value.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..errors import PandoError
from .loop import Loop
from .protocol import DONE, End, Source, ignore_answer, is_error

__all__ = [
    "SinkResult",
    "drain",
    "collect",
    "find",
    "eager_pump",
]


class SinkResult:
    """Completion handle returned by every sink.

    Attributes
    ----------
    done:
        True once the stream terminated (normally, by abort, or by error).
    end:
        The termination marker (``DONE`` or an exception).
    value:
        The sink-specific result (list for ``collect``, matched element for
        ``find``, count for ``drain``).
    aborted:
        True when the sink itself cut the stream short (a ``find`` hit, a
        ``drain`` op returning False) rather than the upstream terminating.
        Drivers use this to trigger cancellation fan-out: an aborted stream
        will never deliver another value, so work still queued on attached
        pools can be cancelled immediately.
    """

    def __init__(self) -> None:
        self.done = False
        self.end: End = None
        self.value: Any = None
        self.aborted = False
        self._callbacks: List[Callable[["SinkResult"], None]] = []

    def _finish(self, end: End, value: Any) -> None:
        if self.done:
            return
        self.done = True
        self.end = end
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def on_done(self, callback: Callable[["SinkResult"], None]) -> None:
        """Register *callback* to run when the stream terminates."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def result(self) -> Any:
        """Return the sink value, raising if the stream failed or is pending."""
        if not self.done:
            raise PandoError("stream has not terminated yet")
        if is_error(self.end):
            raise self.end  # type: ignore[misc]
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "done" if self.done else "pending"
        return f"<SinkResult {state} value={self.value!r}>"


def eager_pump(
    read: Source,
    on_value: Callable[[Any], Any],
    on_end: Callable[[End], None],
    closed_reason: Optional[Callable[[], End]] = None,
) -> None:
    """Drain *read* as fast as it answers: the one drain loop.

    Every sink runs on it — the ones below, and the channel-style duplex
    sinks (simulated channels, the process pool, the websocket gateway, a
    lender sub-stream's result side).  Each value goes to ``on_value``;
    returning ``False`` aborts the upstream, and ``on_end`` then receives
    ``DONE`` once the upstream acknowledges.  An upstream termination goes
    to ``on_end``.  When ``closed_reason()`` turns non-``None`` because the
    local endpoint closed, the upstream is aborted with that reason and any
    value whose answer was already in flight is dropped (exactly like a
    message written to a dead socket; StreamLender's fault tolerance
    re-lends it).  Synchronous answers iterate on :class:`Loop` instead of
    recursing.
    """
    _Drain(read, on_value, on_end, closed_reason).run()


class _Drain(Loop):
    """:func:`eager_pump`'s state: the loop, its ask and its answer."""

    __slots__ = ("read", "on_value", "on_end", "closed_reason")

    def __init__(
        self,
        read: Source,
        on_value: Callable[[Any], Any],
        on_end: Callable[[End], None],
        closed_reason: Optional[Callable[[], End]],
    ) -> None:
        super().__init__()
        self.read = read
        self.on_value = on_value
        self.on_end = on_end
        self.closed_reason = closed_reason

    def step(self) -> None:
        closed_reason = self.closed_reason
        reason = closed_reason() if closed_reason is not None else None
        if reason is None:
            self.read(None, self.answer)
        else:
            self.read(reason, ignore_answer)

    def answer(self, end: End, value: Any) -> None:
        closed_reason = self.closed_reason
        if end is not None:
            self.on_end(end)
        elif closed_reason is not None and closed_reason() is not None:
            # The value can no longer be delivered (the endpoint closed while
            # this answer was in flight): drop it, and the next turn aborts
            # the upstream with the close reason — stopping here would leave
            # the upstream open, and a lender sub-stream would never re-lend
            # the values this worker still borrowed.
            self.run()
        elif self.on_value(value) is False:
            self.read(DONE, self.aborted)
        else:
            self.run()

    def aborted(self, _end: End, _value: Any) -> None:
        self.on_end(DONE)


def drain(
    op: Optional[Callable[[Any], Any]] = None,
    done: Optional[Callable[[End], None]] = None,
) -> Callable[[Source], SinkResult]:
    """Consume every value, optionally applying *op* to each.

    Returning ``False`` from *op* aborts the stream (like the JS ``pull.drain``).
    The ``SinkResult.value`` is the number of values consumed.
    """

    def sink(read: Source) -> SinkResult:
        result = SinkResult()
        count = {"n": 0}

        def on_value(value: Any) -> bool:
            count["n"] += 1
            if op is not None and op(value) is False:
                result.aborted = True
                return False
            return True

        def finish(end: End) -> None:
            result._finish(end, count["n"])
            if done is not None:
                done(end)

        eager_pump(read, on_value, finish)
        return result

    sink.pull_role = "sink"
    return sink


def collect(
    done: Optional[Callable[[End, List[Any]], None]] = None,
) -> Callable[[Source], SinkResult]:
    """Accumulate all values into a list."""

    def sink(read: Source) -> SinkResult:
        result = SinkResult()
        items: List[Any] = []

        def finish(end: End) -> None:
            result._finish(end, items)
            if done is not None:
                done(end, items)

        eager_pump(read, items.append, finish)
        return result

    sink.pull_role = "sink"
    return sink


def find(
    predicate: Callable[[Any], bool],
    done: Optional[Callable[[End, Any], None]] = None,
) -> Callable[[Source], SinkResult]:
    """Stop at the first value satisfying *predicate* and abort upstream."""

    def sink(read: Source) -> SinkResult:
        result = SinkResult()
        found = {"value": None, "hit": False}

        def on_value(value: Any) -> bool:
            if predicate(value):
                found["value"] = value
                found["hit"] = True
                result.aborted = True
                return False
            return True

        def finish(end: End) -> None:
            result._finish(end, found["value"] if found["hit"] else None)
            if done is not None:
                done(end, result.value)

        eager_pump(read, on_value, finish)
        return result

    sink.pull_role = "sink"
    return sink
