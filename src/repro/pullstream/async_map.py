"""The ``AsyncMap`` pull-stream module.

This is the module Pando runs inside each worker (browser tab): it applies the
user's processing function ``f(value, cb)`` to every input value pulled from
the sub-stream and emits the results downstream (paper Figure 7, the
``AsyncMap(f)`` box).  The function reports its result through a Node-style
callback ``cb(err, result)`` which may be invoked synchronously or later
(e.g. after a scheduled computation completes on a simulated device).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .protocol import DONE, Callback, End, Source

__all__ = ["async_map", "apply_node"]

NodeCallback = Callable[[Optional[BaseException], Any], None]
AsyncFunction = Callable[[Any, NodeCallback], None]


def apply_node(fn: AsyncFunction, value: Any, done: NodeCallback) -> None:
    """Run ``fn(value, cb)`` and hand its first answer to ``done(err, result)``.

    A second answer from *fn* is dropped.  An exception *fn* raises before
    answering becomes its answer; one raised after it answered comes from
    ``done``'s own continuation running inside a synchronous ``cb`` — it
    propagates, since answering again would be dropped and lose it.
    """
    answered = False

    def cb(err: Optional[BaseException], result: Any = None) -> None:
        nonlocal answered
        if not answered:
            answered = True
            done(err, result)

    try:
        fn(value, cb)
    except Exception as exc:
        if answered:
            raise
        cb(exc, None)


def async_map(fn: AsyncFunction) -> Callable[[Source], Source]:
    """Transform each value with the asynchronous function *fn*.

    Only one value is in flight at a time (the downstream asks, the upstream
    is asked, *fn* runs, the answer flows down), which is exactly the
    behaviour of the ``pull-async-map`` module used by Pando's workers: the
    concurrency across inputs comes from having many workers, not from a
    single worker pipelining multiple inputs.
    """

    def wrap(read: Source) -> Source:
        state = {"ended": None, "busy": False, "abort_requested": None}

        def mapped(end: End, cb: Callback) -> None:
            if end is not None:
                if state["busy"]:
                    # Remember the abort; it is forwarded upstream once the
                    # in-flight computation finishes.
                    state["abort_requested"] = end
                    cb(end if isinstance(end, BaseException) else DONE, None)
                    return
                read(end, cb)
                return
            if state["ended"] is not None:
                cb(state["ended"], None)
                return

            def computed(err: Optional[BaseException], result: Any) -> None:
                state["busy"] = False
                pending_abort = state["abort_requested"]
                if pending_abort is not None:
                    state["ended"] = (
                        pending_abort
                        if isinstance(pending_abort, BaseException)
                        else DONE
                    )
                    read(pending_abort, lambda _e, _v: None)
                    return
                if err is not None:
                    state["ended"] = err
                    # Abort upstream before reporting the error.
                    read(err, lambda _e, _v: cb(err, None))
                    return
                cb(None, result)

            def upstream_answer(answer_end: End, value: Any) -> None:
                if answer_end is not None:
                    state["ended"] = answer_end
                    cb(answer_end, None)
                    return
                state["busy"] = True
                apply_node(fn, value, computed)

            read(None, upstream_answer)

        mapped.pull_role = "source"
        return mapped

    wrap.pull_role = "through"
    return wrap
