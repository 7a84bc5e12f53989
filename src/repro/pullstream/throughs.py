"""Standard pull-stream transformers (throughs).

These are the building blocks Pando composes between its sources and sinks:
``map_``, ``take`` and ``through``, which observes values without modifying
them.

``batching`` / ``unbatching`` implement *wire framing*: they coalesce
consecutive values into explicit :class:`~repro.net.serialization.Batch`
frames (and split them back) so that one DATA frame — one scheduler event on
the simulated channels, one inter-process round trip on the process-pool
backend — carries up to ``batch_size`` values, which hides network latency
(paper section 5.5).  ``batching`` never stalls a partial chunk behind a
blocked upstream: when the next upstream ask does not answer synchronously,
the values already collected are shipped immediately.  This matters under
``StreamLender``, which parks borrow asks until another sub-stream fails or
the stream completes — a greedy framer would hold borrowed values hostage
and deadlock the map.  ``batching``'s pump runs on
:class:`~repro.pullstream.loop.Loop`, the core's one re-entrancy trampoline,
so long synchronous streams iterate instead of recursing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from ..errors import ProtocolError
from .loop import Loop
from .protocol import DONE, Callback, End, Source, is_error

__all__ = [
    "map_",
    "take",
    "batching",
    "unbatching",
    "through",
]


def map_(fn: Callable[[Any], Any]) -> Callable[[Source], Source]:
    """Apply *fn* synchronously to each value flowing through."""

    def wrap(read: Source) -> Source:
        def mapped(end: End, cb: Callback) -> None:
            def answer(answer_end: End, value: Any) -> None:
                if answer_end is not None:
                    cb(answer_end, None)
                    return
                try:
                    result = fn(value)
                except Exception as exc:
                    # Abort upstream, then report the error downstream.
                    read(exc, lambda _e, _v: cb(exc, None))
                    return
                cb(None, result)

            read(end, answer)

        mapped.pull_role = "source"
        return mapped

    wrap.pull_role = "through"
    return wrap


def take(n_or_test: Any, last: bool = False) -> Callable[[Source], Source]:
    """Let through the first *n* values (or while a predicate holds).

    When *n_or_test* is callable it acts as a "take while" predicate; with
    ``last=True`` the first failing value is still emitted (mirrors the JS
    ``pull.take`` options).
    """
    if callable(n_or_test):
        test = n_or_test
        counter = None
    else:
        counter = {"left": int(n_or_test)}
        test = None

    def wrap(read: Source) -> Source:
        state = {"ended": None}

        def taker(end: End, cb: Callback) -> None:
            if state["ended"] is not None and end is None:
                cb(state["ended"], None)
                return
            if end is not None:
                read(end, cb)
                return
            if counter is not None and counter["left"] <= 0:
                state["ended"] = DONE
                read(DONE, lambda _e, _v: cb(DONE, None))
                return

            def answer(answer_end: End, value: Any) -> None:
                if answer_end is not None:
                    state["ended"] = answer_end
                    cb(answer_end, None)
                    return
                if counter is not None:
                    counter["left"] -= 1
                    cb(None, value)
                    return
                if test(value):
                    cb(None, value)
                else:
                    state["ended"] = DONE
                    if last:
                        cb(None, value)
                    else:
                        read(DONE, lambda _e, _v: cb(DONE, None))

            read(None, answer)

        taker.pull_role = "source"
        return taker

    wrap.pull_role = "through"
    return wrap


def batching(size: int) -> Callable[[Source], Source]:
    """Coalesce consecutive values into :class:`Batch` frames of ≤ *size*.

    The through is **non-stalling**: it fills a frame only with values the
    upstream answers synchronously.  As soon as an upstream ask goes
    asynchronous (e.g. ``StreamLender`` parked the borrow ask waiting on other
    sub-streams) any partially-filled frame is shipped immediately, so a
    borrowed value is never trapped inside the framer — the property that
    makes this safe to place between a lender sub-stream and a channel.
    """
    if size < 1:
        raise ValueError("batching frame size must be >= 1")
    # Imported lazily: repro.net imports repro.pullstream back, and Batch is
    # only needed once a pipeline is wired (all packages loaded by then).
    from ..net.serialization import Batch

    def wrap(read: Source) -> Source:
        state = {
            "chunk": [],      # values collected for the next frame
            "ended": None,    # upstream termination, delivered after the chunk
            "asking": False,  # an upstream ask is in flight
            "waiting": None,  # parked downstream callback
        }

        def step() -> None:
            while True:
                cb = state["waiting"]
                if cb is None:
                    return
                chunk = state["chunk"]
                if len(chunk) >= size or (
                    chunk and (state["ended"] is not None or state["asking"])
                ):
                    # Frame full, or upstream terminated/blocked: ship now.
                    state["chunk"] = []
                    state["waiting"] = None
                    cb(None, Batch(chunk))
                    continue
                if state["ended"] is not None:
                    state["waiting"] = None
                    cb(state["ended"], None)
                    continue
                if state["asking"]:
                    return  # empty chunk: wait for the in-flight answer
                state["asking"] = True
                read(None, answer)

        pump = Loop(step).run

        def answer(answer_end: End, value: Any) -> None:
            state["asking"] = False
            if answer_end is not None:
                state["ended"] = answer_end
            else:
                state["chunk"].append(value)
            pump()

        def batched(end: End, cb: Callback) -> None:
            if end is not None:
                # Downstream abort: drop the chunk and forward upstream (an
                # abort may be issued even while an ask is in flight).
                state["chunk"] = []
                if state["ended"] is None:
                    state["ended"] = end if is_error(end) else DONE
                read(end, cb)
                return
            if state["waiting"] is not None:
                cb(ProtocolError("batching asked twice concurrently"), None)
                return
            state["waiting"] = cb
            pump()

        batched.pull_role = "source"
        return batched

    wrap.pull_role = "through"
    return wrap


def unbatching() -> Callable[[Source], Source]:
    """Split :class:`Batch` frames back into single values.

    Non-batch values pass through unchanged, so a pipeline mixing framed and
    bare values (e.g. a worker that answers lone values for lone inputs)
    still works, and list-*valued* results are left intact.
    """
    from ..net.serialization import Batch

    def wrap(read: Source) -> Source:
        buffer: deque = deque()
        state = {"ended": None}

        def unbatched(end: End, cb: Callback) -> None:
            if end is not None:
                buffer.clear()
                read(end, cb)
                return
            if buffer:
                cb(None, buffer.popleft())
                return
            if state["ended"] is not None:
                cb(state["ended"], None)
                return

            def answer(answer_end: End, value: Any) -> None:
                if answer_end is not None:
                    state["ended"] = answer_end
                    cb(answer_end, None)
                    return
                if isinstance(value, Batch):
                    if not value.values:  # defensive: skip empty frames
                        # Ask again through ``unbatched``: ``answer`` must
                        # not name itself, or every frame leaves a reference
                        # cycle that only the cyclic collector frees.
                        unbatched(None, cb)
                        return
                    buffer.extend(value.values)
                    cb(None, buffer.popleft())
                    return
                cb(None, value)

            read(None, answer)

        unbatched.pull_role = "source"
        return unbatched

    wrap.pull_role = "through"
    return wrap


def through(
    on_value: Optional[Callable[[Any], None]] = None,
    on_end: Optional[Callable[[End], None]] = None,
) -> Callable[[Source], Source]:
    """Observe values and termination without altering the stream."""

    def wrap(read: Source) -> Source:
        def observed(end: End, cb: Callback) -> None:
            def answer(answer_end: End, value: Any) -> None:
                if answer_end is not None:
                    if on_end is not None:
                        on_end(answer_end)
                    cb(answer_end, None)
                    return
                if on_value is not None:
                    on_value(value)
                cb(None, value)

            read(end, answer)

        observed.pull_role = "source"
        return observed

    wrap.pull_role = "through"
    return wrap
