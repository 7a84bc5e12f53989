"""The ``AsyncMap`` pull-stream module.

This is the module Pando runs inside each worker (browser tab): it applies the
user's processing function ``f(value, cb)`` to every input value pulled from
the sub-stream and emits the results downstream (paper Figure 7, the
``AsyncMap(f)`` box).  The function reports its result through a Node-style
callback ``cb(err, result)`` which may be invoked synchronously or later
(e.g. after a scheduled computation completes on a simulated device).

One value is in flight per stage, so the ask being answered lives in a slot
of the stage and the continuations are its bound methods: a value allocates
no closure, and nothing it leaves behind forms a reference cycle.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .protocol import DONE, Callback, End, Source, ignore_answer

__all__ = ["async_map", "apply_node"]

NodeCallback = Callable[[Optional[BaseException], Any], None]
AsyncFunction = Callable[[Any, NodeCallback], None]


class _FirstAnswer:
    """The Node callback handed to *fn*: forwards its first answer only."""

    __slots__ = ("done",)

    def __init__(self, done: NodeCallback) -> None:
        self.done: Optional[NodeCallback] = done

    def __call__(self, err: Optional[BaseException], result: Any = None) -> None:
        done = self.done
        if done is not None:
            self.done = None
            done(err, result)


def apply_node(fn: AsyncFunction, value: Any, done: NodeCallback) -> None:
    """Run ``fn(value, cb)`` and hand its first answer to ``done(err, result)``.

    A second answer from *fn* is dropped.  An exception *fn* raises before
    answering becomes its answer; one raised after it answered comes from
    ``done``'s own continuation running inside a synchronous ``cb`` — it
    propagates, since answering again would be dropped and lose it.
    """
    answer = _FirstAnswer(done)
    try:
        fn(value, answer)
    except Exception as exc:
        if answer.done is None:
            raise
        answer(exc, None)


class _AsyncMapStage:
    """One ``async_map`` stage: the read it maps and the value in flight."""

    __slots__ = ("fn", "read", "cb", "ended", "busy", "abort_requested")

    def __init__(self, fn: AsyncFunction, read: Source) -> None:
        self.fn = fn
        self.read = read
        #: the ask whose value is being read or computed
        self.cb: Optional[Callback] = None
        self.ended: End = None
        self.busy = False
        self.abort_requested: End = None

    def source(self, end: End, cb: Callback) -> None:
        if end is not None:
            if self.busy:
                # Remember the abort; it is forwarded upstream once the
                # in-flight computation finishes.
                self.abort_requested = end
                cb(end if isinstance(end, BaseException) else DONE, None)
                return
            self.read(end, cb)
            return
        if self.ended is not None:
            cb(self.ended, None)
            return
        self.cb = cb
        self.read(None, self.upstream_answer)

    source.pull_role = "source"

    def upstream_answer(self, end: End, value: Any) -> None:
        if end is not None:
            self.ended = end
            self.answer(end, None)
            return
        self.busy = True
        apply_node(self.fn, value, self.computed)

    def computed(self, err: Optional[BaseException], result: Any) -> None:
        self.busy = False
        pending_abort = self.abort_requested
        if pending_abort is not None:
            # The abort was answered when it arrived; the ask it overtook
            # is dropped — the downstream that aborted wants no answer.
            self.cb = None
            self.ended = (
                pending_abort if isinstance(pending_abort, BaseException) else DONE
            )
            self.read(pending_abort, ignore_answer)
            return  # pando-lint: ignore[callback-discipline]
        if err is not None:
            self.ended = err
            # Abort upstream before reporting the error.
            self.read(err, self.report_error)
            return
        self.answer(None, result)

    def report_error(self, _end: End, _value: Any) -> None:
        self.answer(self.ended, None)

    def answer(self, end: End, value: Any) -> None:
        # Empty the slot first: the answer's cascade may ask again.
        cb, self.cb = self.cb, None
        cb(end, value)


def async_map(fn: AsyncFunction) -> Callable[[Source], Source]:
    """Transform each value with the asynchronous function *fn*.

    Only one value is in flight at a time (the downstream asks, the upstream
    is asked, *fn* runs, the answer flows down), which is exactly the
    behaviour of the ``pull-async-map`` module used by Pando's workers: the
    concurrency across inputs comes from having many workers, not from a
    single worker pipelining multiple inputs.
    """

    def wrap(read: Source) -> Source:
        return _AsyncMapStage(fn, read).source

    wrap.pull_role = "through"
    return wrap
