"""Stream splitting and merging.

* :func:`split` fans one source out into *n* **branch** sources, assigning
  value ``i`` of the input to branch ``i % n`` (round-robin).  Branches pull
  independently and lazily: the upstream is only read while some branch has
  an unanswered ask, and values destined for a branch that is not currently
  asking are buffered until it does (up to *max_buffer* each).
* :func:`merge_unordered` joins *n* sources in **completion order**: it asks
  every source concurrently and delivers whichever answers first.

The master itself uses neither: a :class:`~repro.core.DistributedMap` is one
lender, whose sub-streams already take values on demand.  The pair is kept
as a pull-stream combinator the ``perf/`` suite replays
(``pullstream.split_merge_us_per_value``)::

    pull(merge_unordered(split(read, 2, max_buffer=16)), drain())

The splitter's upstream pump runs on :class:`~repro.pullstream.loop.Loop`,
the core's one re-entrancy trampoline: a branch asking again from inside a
synchronous answer becomes the pump's next turn, not a nested read.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Sequence

from ..errors import ProtocolError
from .loop import Loop
from .protocol import DONE, Callback, End, Source, ignore_answer, is_error

__all__ = ["split", "merge_unordered"]


def split(read: Source, n: int, max_buffer: Optional[int] = None) -> List[Source]:
    """Split *read* into *n* round-robin branch sources.

    Value ``i`` of the upstream goes to branch ``i % n``.  The splitter pumps
    the upstream only while at least one branch has an unanswered ask, so the
    composition stays lazy; values that arrive for branches that are not
    asking are buffered.  Without a cap a stalled branch buffers its 1/n of
    everything pumped for its siblings.  *max_buffer* bounds that: the pump
    parks as soon as the **next** upstream value belongs to a branch that is
    not asking and already holds *max_buffer* values, and resumes when that
    branch asks again.

    Terminations: when the upstream ends, every parked and future branch ask
    is answered with the same termination.  When **any** branch aborts, the
    upstream is aborted with its reason and the other branches are answered
    with the termination on their parked and later asks.
    """
    if n < 1:
        raise ValueError("split requires at least one branch")
    if max_buffer is not None and max_buffer < 1:
        raise ValueError("max_buffer must be >= 1 (or None for unbounded)")
    buffers: List[Deque[Any]] = [deque() for _ in range(n)]
    waiting: List[Optional[Callback]] = [None] * n
    state = {
        "next": 0,       # global index of the next upstream value
        "ended": None,   # upstream termination
        "aborted": None, # branch-initiated abort
        "reading": False,
    }

    def termination() -> End:
        """The end every branch ask is answered with once no value can come."""
        if is_error(state["aborted"]):
            return state["aborted"]
        if is_error(state["ended"]):
            return state["ended"]
        return DONE

    def flush_end() -> None:
        """Answer every parked branch ask once no more values can arrive."""
        for index in range(n):
            cb = waiting[index]
            if cb is not None and not buffers[index]:
                waiting[index] = None
                cb(termination(), None)

    def answer(end: End, value: Any) -> None:
        state["reading"] = False
        if state["aborted"] is not None:
            return  # late answer after a branch abort; the value is dropped
        if end is not None:
            state["ended"] = end if is_error(end) else DONE
            flush_end()
            return
        branch = state["next"] % n
        state["next"] += 1
        cb = waiting[branch]
        if cb is not None:
            waiting[branch] = None
            cb(None, value)
        else:
            buffers[branch].append(value)
        pump()

    def next_branch_blocked() -> bool:
        """True when reading one more value would overflow a branch's cap."""
        if max_buffer is None:
            return False
        branch = state["next"] % n
        return waiting[branch] is None and len(buffers[branch]) >= max_buffer

    def step() -> None:
        if (
            state["ended"] is None
            and state["aborted"] is None
            and not state["reading"]
            and any(cb is not None for cb in waiting)
            and not next_branch_blocked()
        ):
            state["reading"] = True
            read(None, answer)  # ``answer`` runs the next turn

    pump = Loop(step).run

    def abort(end: End) -> None:
        """A branch aborted: drop the buffers, end every parked ask and abort
        the upstream (once; a late answer to an ask in flight is dropped)."""
        if state["aborted"] is not None:
            return
        for buffer in buffers:
            buffer.clear()
        state["aborted"] = end if is_error(end) else DONE
        flush_end()
        if state["ended"] is None:
            state["ended"] = state["aborted"]
            read(end, ignore_answer)

    def make_branch(index: int) -> Source:
        def branch(end: End, cb: Callback) -> None:
            if end is not None:
                abort(end)
                cb(termination(), None)
                return
            if state["aborted"] is not None:
                cb(termination(), None)
                return
            if buffers[index]:
                cb(None, buffers[index].popleft())
                # Draining a slot may release a pump parked on this branch's
                # buffer cap.
                pump()
                return
            if state["ended"] is not None:
                cb(termination(), None)
                return
            if waiting[index] is not None:
                cb(ProtocolError(f"split branch {index} asked twice concurrently"), None)
                return
            waiting[index] = cb
            pump()

        branch.pull_role = "source"
        return branch

    return [make_branch(index) for index in range(n)]


def merge_unordered(sources: Sequence[Source]) -> Source:
    """Join *sources* into one stream in **completion order**.

    On every downstream ask the joiner fans an ask out to each source that
    does not already have one in flight, and delivers whichever value answers
    first; later answers are buffered and satisfy subsequent downstream asks
    without re-asking.  A normal ``DONE`` from one source only retires that
    source; the merged stream ends when **every** source has ended.

    An **error** from one source aborts the others and the merged stream; a
    downstream abort is forwarded to every source.  Values buffered but not
    yet delivered when an abort lands are dropped.
    """
    n = len(sources)
    if n < 1:
        raise ValueError("merge_unordered requires at least one source")
    ready: Deque[Any] = deque()  # answered values awaiting a downstream ask
    in_flight = [False] * n
    done = [False] * n
    state = {
        "ended": None,
        "waiting": None,  # parked downstream callback
    }

    def finish(end: End) -> None:
        if state["ended"] is None:
            state["ended"] = end if is_error(end) else DONE

    def release(end: End) -> None:
        cb, state["waiting"] = state["waiting"], None
        if cb is not None:
            cb(end, None)

    def close_sources(end: End, skip: Optional[int] = None) -> None:
        for index, source in enumerate(sources):
            if index != skip and not done[index]:
                done[index] = True
                source(end, ignore_answer)

    def make_answer(index: int) -> Callback:
        def answer(end: End, value: Any) -> None:
            in_flight[index] = False
            if state["ended"] is not None:
                return  # late answer after an abort
            if end is not None:
                done[index] = True
                if is_error(end):
                    finish(end)
                    ready.clear()
                    close_sources(end, skip=index)
                    release(state["ended"])
                elif all(done) and not ready and state["waiting"] is not None:
                    finish(DONE)
                    release(DONE)
                return
            if state["waiting"] is not None:
                cb, state["waiting"] = state["waiting"], None
                cb(None, value)
            else:
                ready.append(value)

        return answer

    def read(end: End, cb: Callback) -> None:
        if end is not None:
            if state["ended"] is None:
                finish(end)
                ready.clear()
                close_sources(state["ended"])
                release(state["ended"])  # one answer per parked request
            cb(state["ended"], None)
            return
        if state["ended"] is not None:
            cb(state["ended"], None)
            return
        if state["waiting"] is not None:
            cb(ProtocolError("merge_unordered asked twice concurrently"), None)
            return
        if ready:
            cb(None, ready.popleft())
            return
        if all(done):
            finish(DONE)
            cb(DONE, None)
            return
        state["waiting"] = cb
        for index, source in enumerate(sources):
            if done[index] or in_flight[index]:
                continue
            in_flight[index] = True
            source(None, make_answer(index))
            if state["ended"] is not None or state["waiting"] is None:
                break  # a synchronous answer already satisfied the ask

    read.pull_role = "source"
    return read
