"""Stream splitting and merging (multi-master support).

A single :class:`~repro.core.lender.StreamLender` is one ordering domain: one
reorder buffer, one upstream pump.  Sharding the master across several
lenders needs a splitter and a joiner:

* :func:`split` fans one source out into *n* **branch** sources, assigning
  value ``i`` of the input to branch ``i % n`` (round-robin).  Branches pull
  independently and lazily: the upstream is only read while some branch has
  an unanswered ask, and values destined for a branch that is not currently
  asking are buffered until it does (up to *max_buffer* each).
* :func:`share` fans one source out **on demand**: each upstream value goes
  to the branch that has waited longest for one, and nothing is buffered.
  It is the lender's own rule (a value is lent only when a worker asks for
  one, so faster workers get more) applied to whole shards, and it
  serves unordered shards, where no interleaving has to be reconstructed: a
  shard that falls behind takes fewer values instead of queueing its
  round-robin share behind its stall.
* :func:`merge_ordered` joins *n* sources back into one by interleaving them
  in turn order (source 0, 1, ..., n-1, 0, ...).  When the sources are the
  ordered outputs of lenders fed by :func:`split`, the interleaving
  reconstructs the **global input order** exactly.
* :func:`merge_unordered` joins *n* sources in **completion order**: it asks
  every source concurrently, delivers whichever answers first, and drains the
  stragglers once the global length is known.  Joining unordered lenders this
  way serves the synchronous-parallel-search workloads (paper section 4.2)
  where the first answer wins and holding a result back behind a slower
  sibling shard wastes exactly the latency the search cares about.

Both splitters' upstream pumps run on :class:`~repro.pullstream.loop.Loop`,
the core's one re-entrancy trampoline: a branch asking again from inside a
synchronous answer becomes the pump's next turn, not a nested read.

The splitter/joiner pairs around a
:class:`~repro.core.sharding.ShardedLender` are ``split``/``merge_ordered``
(global input order) and ``share``/``merge_unordered`` (completion order)::

    branches = split(read, n)
    merged = merge_ordered([lender(branch) for lender, branch
                            in zip(lenders, branches)])
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from ..errors import ProtocolError
from .loop import Loop
from .protocol import DONE, Callback, End, Source, ignore_answer, is_error

__all__ = ["SplitBranches", "split", "share", "merge_ordered", "merge_unordered"]


class SplitBranches(List[Source]):
    """The branch sources returned by :func:`split` and :func:`share`.

    Behaves as a plain list of sources, with introspection properties used by
    the sharded master: how many values the splitter has read from the
    upstream, and whether the upstream has terminated (once it has, the two
    together give the exact length of the global stream, which
    :func:`merge_ordered` uses to finish without asking a branch that will
    never answer).
    """

    def __init__(self, branches: Sequence[Source], state: dict) -> None:
        super().__init__(branches)
        self._state = state

    @property
    def values_read(self) -> int:
        """Number of values read from the upstream so far."""
        return self._state["next"]

    @property
    def upstream_ended(self) -> bool:
        """True once the upstream answered a termination."""
        return self._state["ended"] is not None

    @property
    def upstream_end(self) -> End:
        """The upstream termination marker (``None`` while still open)."""
        return self._state["ended"]

    @property
    def buffer_depths(self) -> List[int]:
        """Values currently buffered per branch (index = branch id); all
        zeros for :func:`share`, which never buffers."""
        return [len(buffer) for buffer in self._state["buffers"]]

    @property
    def max_buffer(self) -> Optional[int]:
        """The per-branch buffer cap (``None`` when unbounded)."""
        return self._state["max_buffer"]


def _termination(state: dict) -> End:
    """The end every branch ask is answered with once no value can come."""
    if is_error(state["aborted"]):
        return state["aborted"]
    if is_error(state["ended"]):
        return state["ended"]
    return DONE


def _abort_upstream(
    state: dict, read: Source, end: End, flush_end: Callable[[], None]
) -> None:
    """A branch aborted: end every parked branch ask and abort the upstream
    (once; an upstream ask may still be in flight, its late answer is
    dropped)."""
    if state["aborted"] is not None:
        return
    state["aborted"] = end if is_error(end) else DONE
    flush_end()
    if state["ended"] is None:
        state["ended"] = state["aborted"]
        read(end, ignore_answer)


def split(
    read: Source,
    n: int,
    on_end: Optional[Callable[[End], None]] = None,
    max_buffer: Optional[int] = None,
) -> SplitBranches:
    """Split *read* into *n* round-robin branch sources.

    Value ``i`` of the upstream goes to branch ``i % n``.  The splitter pumps
    the upstream only while at least one branch has an unanswered ask, so the
    composition stays lazy; values that arrive for branches that are not
    asking are buffered.  Without a cap this buffering is **unbounded under
    speed skew**: while one branch keeps asking, its round-robin siblings
    accumulate their share of every value pumped on its behalf, so a stalled
    branch can buffer up to its 1/n of the remaining input (the same O(skew)
    growth a single lender's reorder buffer exhibits when one worker stalls).

    *max_buffer* bounds that growth: the pump parks as soon as the **next**
    upstream value belongs to a branch that is not asking and already holds
    *max_buffer* buffered values, back-pressuring the fast siblings instead
    of growing the stalled branch's backlog.  The parked pump resumes the
    moment the slow branch asks again (its buffer drains below the cap
    first, since a branch ask always pops its own buffer before parking).
    The trade-off is liveness under permanent stalls: a branch that never
    asks again eventually parks the whole splitter — the same "master waits
    for more volunteers" state a shard with no workers already exhibits, now
    with O(max_buffer) instead of O(input/n) memory held.

    Terminations:

    * when the upstream ends, every parked and future branch ask is answered
      with the same termination, and *on_end* (if given) is called once —
      the sharded master uses this to unpark its joiner;
    * when **any** branch aborts, the whole splitter aborts: the upstream is
      aborted with the branch's reason and the other branches are answered
      with the termination on their parked and subsequent asks.  (The only
      aborts a branch issues in the sharded composition come from a global
      downstream abort, which reaches every branch anyway.)
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
        "buffers": buffers,
        "max_buffer": max_buffer,
    }

    def flush_end() -> None:
        """Answer every parked branch ask once no more values can arrive."""
        for index in range(n):
            cb = waiting[index]
            if cb is not None and not buffers[index]:
                waiting[index] = None
                cb(_termination(state), None)

    def answer(end: End, value: Any) -> None:
        state["reading"] = False
        if state["aborted"] is not None:
            return  # late answer after a branch abort; the value is dropped
        if end is not None:
            state["ended"] = end if is_error(end) else DONE
            flush_end()
            if on_end is not None:
                on_end(state["ended"])
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
        """True when reading one more value would overflow a branch's cap.

        The value about to be read belongs to branch ``next % n``; handing it
        to a waiting ask never buffers, so only a branch that is not asking
        and already *max_buffer* behind parks the pump.
        """
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

    def make_branch(index: int) -> Source:
        def branch(end: End, cb: Callback) -> None:
            if end is not None:
                if state["aborted"] is None:
                    for buffer in buffers:
                        buffer.clear()
                _abort_upstream(state, read, end, flush_end)
                cb(_termination(state), None)
                return
            if state["aborted"] is not None:
                cb(_termination(state), None)
                return
            if buffers[index]:
                cb(None, buffers[index].popleft())
                # Draining a slot may release a pump parked on this branch's
                # buffer cap.
                pump()
                return
            if state["ended"] is not None:
                cb(_termination(state), None)
                return
            if waiting[index] is not None:
                cb(
                    ProtocolError(
                        f"split branch {index} asked twice concurrently"
                    ),
                    None,
                )
                return
            waiting[index] = cb
            pump()

        branch.pull_role = "source"
        return branch

    return SplitBranches([make_branch(index) for index in range(n)], state)


def share(
    read: Source,
    n: int,
    on_end: Optional[Callable[[End], None]] = None,
) -> SplitBranches:
    """Split *read* into *n* branch sources that take values on demand.

    The upstream is read only while some branch has a parked ask, one value
    per read, and each value answers the **oldest** parked ask: the branch
    that has waited longest gets it.  Nothing is ever buffered, so a branch
    that stops asking holds no values back from its siblings — the order of
    the values across branches follows the order of the asks, which is why
    only a completion-order joiner (:func:`merge_unordered`) can sit behind
    it.

    Terminations follow :func:`split`: when the upstream ends, every parked
    and later ask is answered with the termination and *on_end* is called
    once; when any branch aborts, the upstream is aborted and every other
    branch is answered with the termination.  A second concurrent ask on one
    branch is answered with a :class:`~repro.errors.ProtocolError`.
    """
    if n < 1:
        raise ValueError("share requires at least one branch")
    parked: Deque[Tuple[int, Callback]] = deque()  # oldest ask first
    asking = [False] * n
    state = {
        "next": 0,       # values read from the upstream so far
        "ended": None,   # upstream termination
        "aborted": None, # branch-initiated abort
        "reading": False,
        "buffers": [()] * n,
        "max_buffer": None,
    }

    def flush_end() -> None:
        while parked:
            index, cb = parked.popleft()
            asking[index] = False
            cb(_termination(state), None)

    def answer(end: End, value: Any) -> None:
        state["reading"] = False
        if state["aborted"] is not None:
            return  # late answer after a branch abort; the value is dropped
        if end is not None:
            state["ended"] = end if is_error(end) else DONE
            flush_end()
            if on_end is not None:
                on_end(state["ended"])
            return
        state["next"] += 1
        # A read is only issued for a parked ask, and only an answer or a
        # termination takes one off the queue.
        index, cb = parked.popleft()
        asking[index] = False
        cb(None, value)
        pump()

    def step() -> None:
        if (
            parked
            and state["ended"] is None
            and state["aborted"] is None
            and not state["reading"]
        ):
            state["reading"] = True
            read(None, answer)  # ``answer`` runs the next turn

    pump = Loop(step).run

    def make_branch(index: int) -> Source:
        def branch(end: End, cb: Callback) -> None:
            if end is not None:
                _abort_upstream(state, read, end, flush_end)
                cb(_termination(state), None)
                return
            if state["ended"] is not None or state["aborted"] is not None:
                cb(_termination(state), None)
                return
            if asking[index]:
                cb(
                    ProtocolError(
                        f"share branch {index} asked twice concurrently"
                    ),
                    None,
                )
                return
            asking[index] = True
            parked.append((index, cb))
            pump()

        branch.pull_role = "source"
        return branch

    return SplitBranches([make_branch(index) for index in range(n)], state)


def merge_ordered(
    sources: Sequence[Source],
    total: Optional[Callable[[], Optional[int]]] = None,
    total_end: Optional[Callable[[], End]] = None,
) -> Source:
    """Join *sources* into one stream by round-robin interleaving.

    Value ``j`` of the merged stream is asked from ``sources[j % n]``; when
    the sources preserve the order of a :func:`split` fan-out, the merged
    stream is the global input order.  The joiner issues one source ask at a
    time (the downstream protocol already forbids concurrent asks).

    *total*, when given, is a zero-argument callable returning the length of
    the global stream once it is known (``None`` before that).  The joiner
    then terminates as soon as it has delivered that many values — without
    asking another source, which matters when a shard has lost all its
    workers and would never answer.  *total_end* supplies the termination
    marker for that short-circuit (default ``DONE``): pass the upstream's
    own end so that a stream whose input **errored** after *total* values
    reports the error instead of presenting the partial results as a clean
    completion.  The returned source exposes ``recheck()``: call it when
    *total* may have just become known; a parked source ask whose index is
    past the end is then abandoned and the downstream answered directly.

    Terminations: a normal ``DONE`` from one source ends the merged stream
    without touching the others (with round-robin assignment they are
    already drained); an **error** from one source aborts all the others; a
    downstream abort is forwarded to every source.
    """
    n = len(sources)
    if n < 1:
        raise ValueError("merge_ordered requires at least one source")
    state = {
        "turn": 0,      # values delivered downstream so far
        "ended": None,
        "pending": None,  # (token, source index, downstream cb) while asking
    }

    def finish(end: End) -> None:
        if state["ended"] is None:
            state["ended"] = end if is_error(end) else DONE

    def abort_sources(end: End, skip: Optional[int] = None) -> None:
        for index, source in enumerate(sources):
            if index != skip:
                source(end, ignore_answer)

    def read(end: End, cb: Callback) -> None:
        if end is not None:
            if state["ended"] is None:
                finish(end)
                # Abandon the in-flight source ask (its late answer is
                # dropped by the token check) but still answer its parked
                # downstream callback: one answer per request.
                pending, state["pending"] = state["pending"], None
                abort_sources(state["ended"])
                if pending is not None:
                    pending[2](state["ended"], None)
            cb(state["ended"], None)
            return
        if state["ended"] is not None:
            cb(state["ended"], None)
            return
        if state["pending"] is not None:
            cb(ProtocolError("merge_ordered asked twice concurrently"), None)
            return
        if total is not None:
            known = total()
            if known is not None and state["turn"] >= known:
                finish(total_end() if total_end is not None else DONE)
                if is_error(state["ended"]):
                    abort_sources(state["ended"])
                cb(state["ended"], None)
                return
        index = state["turn"] % n
        token = object()
        state["pending"] = (token, index, cb)

        def answer(answer_end: End, value: Any) -> None:
            pending = state["pending"]
            if pending is None or pending[0] is not token:
                return  # abandoned by an abort or a recheck() short-circuit
            state["pending"] = None
            if answer_end is not None:
                finish(answer_end)
                if is_error(answer_end):
                    abort_sources(state["ended"], skip=index)
                cb(state["ended"], None)
                return
            state["turn"] += 1
            cb(None, value)

        sources[index](None, answer)

    def recheck() -> None:
        if state["ended"] is not None or total is None or state["pending"] is None:
            return
        known = total()
        if known is None or state["turn"] < known:
            return
        _token, index, cb = state["pending"]
        state["pending"] = None
        finish(total_end() if total_end is not None else DONE)
        if is_error(state["ended"]):
            abort_sources(state["ended"])
        else:
            sources[index](DONE, ignore_answer)
        cb(state["ended"], None)

    read.pull_role = "source"
    read.recheck = recheck
    return read


def merge_unordered(
    sources: Sequence[Source],
    total: Optional[Callable[[], Optional[int]]] = None,
    total_end: Optional[Callable[[], End]] = None,
) -> Source:
    """Join *sources* into one stream in **completion order**.

    On every downstream ask the joiner fans an ask out to each source that
    does not already have one in flight, and delivers whichever value answers
    first; later answers are buffered and satisfy subsequent downstream asks
    without re-asking.  No interleaving discipline is imposed, so joining the
    outputs of :class:`~repro.core.lender.UnorderedStreamLender` shards fed
    by :func:`share` yields the "first answer wins" semantics the paper's
    synchronous parallel search (crypto mining, section 4.2) needs: a hit
    found on a fast shard is never held back behind a slower sibling.

    A normal ``DONE`` from one source only retires that source (unlike
    :func:`merge_ordered`, completion order says nothing about the others
    being drained); the merged stream ends when **every** source has ended,
    or — with *total* given, same contract as :func:`merge_ordered` — as soon
    as *total* values have been delivered, without waiting on a source that
    will never answer (the dead-shard short-circuit).  *total_end* supplies
    the termination for both completions, so an errored input surfaces its
    error instead of presenting the delivered values as a clean end.  The
    returned source exposes ``recheck()``: call it when *total* may have just
    become known to release a parked downstream ask.

    An **error** from one source aborts the others and the merged stream; a
    downstream abort is forwarded to every source.  Values buffered but not
    yet delivered when an abort lands are dropped, exactly as a lender's
    reorder buffer drops undelivered results on abort.
    """
    n = len(sources)
    if n < 1:
        raise ValueError("merge_unordered requires at least one source")
    ready: Deque[Any] = deque()  # answered values awaiting a downstream ask
    in_flight = [False] * n
    done = [False] * n
    state = {
        "delivered": 0,
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

    def completion_end() -> End:
        if total_end is not None:
            end = total_end()
            if is_error(end):
                return end
        return DONE

    def finished_by_total() -> bool:
        if total is None or ready:
            return False
        known = total()
        return known is not None and state["delivered"] >= known

    def maybe_finish() -> None:
        """Terminate a parked downstream ask once no value can still arrive."""
        if state["ended"] is not None or state["waiting"] is None or ready:
            return
        if all(done):
            finish(completion_end())
            release(state["ended"])
        elif finished_by_total():
            finish(completion_end())
            # The stragglers will never answer their in-flight asks; close
            # them with the termination so their shards shut down cleanly.
            close_sources(state["ended"])
            release(state["ended"])

    def make_answer(index: int) -> Callback:
        def answer(end: End, value: Any) -> None:
            in_flight[index] = False
            if state["ended"] is not None:
                return  # late answer after an abort or a short-circuit
            if end is not None:
                done[index] = True
                if is_error(end):
                    finish(end)
                    ready.clear()
                    close_sources(end, skip=index)
                    release(state["ended"])
                else:
                    maybe_finish()
                return
            if state["waiting"] is not None:
                state["delivered"] += 1
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
            state["delivered"] += 1
            cb(None, ready.popleft())
            return
        state["waiting"] = cb
        maybe_finish()
        if state["waiting"] is None:
            return
        for index, source in enumerate(sources):
            if done[index] or in_flight[index]:
                continue
            in_flight[index] = True
            source(None, make_answer(index))
            if state["ended"] is not None or state["waiting"] is None:
                break  # a synchronous answer already satisfied the ask

    def recheck() -> None:
        maybe_finish()

    read.pull_role = "source"
    read.recheck = recheck
    return read
