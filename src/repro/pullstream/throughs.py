"""Standard pull-stream transformers (throughs).

These are the building blocks Pando composes between its sources and sinks:
``map``, ``filter``, ``take``, ``unique``, ``flatten``, plus ``batch`` /
``unbatch`` which implement the input batching used to hide network latency
in the paper's evaluation (section 5.5), and ``through`` which observes values
without modifying them.

``batching`` / ``unbatching`` / ``map_batches`` implement *wire framing*: they
coalesce consecutive values into explicit
:class:`~repro.net.serialization.Batch` frames (and split them back) so that
one DATA frame — one scheduler event on the simulated channels, one
inter-process round trip on the process-pool backend — carries up to
``batch_size`` values.  Unlike :func:`batch`, ``batching`` never stalls a
partial chunk behind a blocked upstream: when the next upstream ask does not
answer synchronously, the values already collected are shipped immediately.
This matters under ``StreamLender``, which parks borrow asks until another
sub-stream fails or the stream completes — a greedy ``batch`` would hold
borrowed values hostage and deadlock the map.

``batching``'s pump and ``map_batches``' element loop run on
:class:`~repro.pullstream.loop.Loop`, the core's one re-entrancy trampoline,
so long synchronous streams and frames of any size iterate instead of
recursing; ``map_batches`` answers each node callback once through
:func:`~repro.pullstream.async_map.apply_node`, as ``async_map`` does.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from ..errors import ProtocolError
from .async_map import apply_node
from .loop import Loop
from .protocol import DONE, Callback, End, Source, is_error

__all__ = [
    "map_",
    "filter_",
    "filter_not",
    "take",
    "unique",
    "non_unique",
    "flatten",
    "batch",
    "unbatch",
    "batching",
    "unbatching",
    "map_batches",
    "through",
    "tap",
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


def filter_(predicate: Callable[[Any], bool]) -> Callable[[Source], Source]:
    """Only let through values for which *predicate* is true."""

    def wrap(read: Source) -> Source:
        def filtered(end: End, cb: Callback) -> None:
            if end is not None:
                read(end, cb)
                return

            def answer(answer_end: End, value: Any) -> None:
                if answer_end is not None:
                    cb(answer_end, None)
                    return
                try:
                    keep = predicate(value)
                except Exception as exc:
                    read(exc, lambda _e, _v: cb(exc, None))
                    return
                if keep:
                    cb(None, value)
                else:
                    read(None, answer)

            read(None, answer)

        filtered.pull_role = "source"
        return filtered

    wrap.pull_role = "through"
    return wrap


def filter_not(predicate: Callable[[Any], bool]) -> Callable[[Source], Source]:
    """Complement of :func:`filter_`."""
    return filter_(lambda value: not predicate(value))


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


def unique(key: Optional[Callable[[Any], Any]] = None) -> Callable[[Source], Source]:
    """Drop values whose key was already seen."""
    key = key or (lambda value: value)
    seen: set = set()

    def first_occurrence(value: Any) -> bool:
        k = key(value)
        if k in seen:
            return False
        seen.add(k)
        return True

    return filter_(first_occurrence)


def non_unique(key: Optional[Callable[[Any], Any]] = None) -> Callable[[Source], Source]:
    """Only let through values whose key was seen before (duplicates)."""
    key = key or (lambda value: value)
    seen: set = set()

    def is_duplicate(value: Any) -> bool:
        k = key(value)
        if k in seen:
            return True
        seen.add(k)
        return False

    return filter_(is_duplicate)


def flatten() -> Callable[[Source], Source]:
    """Flatten a stream of iterables into a stream of their elements."""

    def wrap(read: Source) -> Source:
        buffer: list = []
        state = {"ended": None}

        def flat(end: End, cb: Callback) -> None:
            if end is not None:
                read(end, cb)
                return
            if buffer:
                cb(None, buffer.pop(0))
                return
            if state["ended"] is not None:
                cb(state["ended"], None)
                return

            def answer(answer_end: End, value: Any) -> None:
                if answer_end is not None:
                    state["ended"] = answer_end
                    cb(answer_end, None)
                    return
                try:
                    buffer.extend(list(value))
                except TypeError:
                    buffer.append(value)
                flat(None, cb)

            read(None, answer)

        flat.pull_role = "source"
        return flat

    wrap.pull_role = "through"
    return wrap


def batch(size: int) -> Callable[[Source], Source]:
    """Group consecutive values into lists of at most *size* elements.

    Pando sends inputs to volunteers in batches (``--batch-size``) so that the
    transfer of the next inputs overlaps with the computation of the current
    one, hiding network latency (paper sections 5.2-5.5).
    """
    if size < 1:
        raise ValueError("batch size must be >= 1")

    def wrap(read: Source) -> Source:
        state = {"ended": None}

        def batched(end: End, cb: Callback) -> None:
            if end is not None:
                read(end, cb)
                return
            if state["ended"] is not None:
                cb(state["ended"], None)
                return
            chunk: list = []

            def answer(answer_end: End, value: Any) -> None:
                if answer_end is not None:
                    state["ended"] = answer_end
                    if chunk:
                        cb(None, list(chunk))
                    else:
                        cb(answer_end, None)
                    return
                chunk.append(value)
                if len(chunk) >= size:
                    cb(None, list(chunk))
                else:
                    read(None, answer)

            read(None, answer)

        batched.pull_role = "source"
        return batched

    wrap.pull_role = "through"
    return wrap


def unbatch() -> Callable[[Source], Source]:
    """Inverse of :func:`batch`: flatten lists back into single values."""
    return flatten()


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
    still works — and, unlike :func:`unbatch`, list-*valued* results are left
    intact.
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
                        read(None, answer)
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


def map_batches(
    fn: Callable[[Any, Callable[[Optional[BaseException], Any], None]], None]
) -> Callable[[Source], Source]:
    """Worker-side counterpart of :func:`batching`.

    Applies the node-style processing function ``fn(value, cb)`` to every
    element of incoming :class:`Batch` frames and answers one ``Batch`` of
    results per input frame (bare values are mapped one-to-one), preserving
    the one-result-per-frame contract the :class:`~repro.core.limiter.Limiter`
    relies on.
    """
    from ..net.serialization import Batch

    def wrap(read: Source) -> Source:
        state = {"ended": None}

        def mapped(end: End, cb: Callback) -> None:
            if end is not None:
                read(end, cb)
                return
            if state["ended"] is not None:
                cb(state["ended"], None)
                return

            def fail(exc: BaseException) -> None:
                state["ended"] = exc
                read(exc, lambda _e, _v: cb(exc, None))

            def answer(answer_end: End, value: Any) -> None:
                if answer_end is not None:
                    state["ended"] = answer_end
                    cb(answer_end, None)
                    return
                if not isinstance(value, Batch):
                    apply_node(
                        fn,
                        value,
                        lambda err, result: fail(err) if err is not None else cb(None, result),
                    )
                    return
                elements = list(value.values)
                results: list = []

                def step() -> None:
                    if len(results) == len(elements):
                        cb(None, Batch(results))
                    else:
                        apply_node(fn, elements[len(results)], element_done)

                def element_done(err: Optional[BaseException], result: Any) -> None:
                    if err is not None:
                        fail(err)
                    else:
                        results.append(result)
                        proceed()

                proceed = Loop(step).run
                proceed()

            read(None, answer)

        mapped.pull_role = "source"
        return mapped

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


def tap(fn: Callable[[Any], None]) -> Callable[[Source], Source]:
    """Alias of :func:`through` observing only values."""
    return through(on_value=fn)
