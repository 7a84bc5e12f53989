"""StreamLender — the core coordination abstraction of Pando (paper section 3).

``StreamLender`` is a pull-stream *through* module that lends values from its
input stream to any number of concurrent **sub-streams** (one per volunteer
device) and merges the results back into its output stream **in input
order**.  It encapsulates the streaming, ordered, dynamic, unbounded, lazy,
fault-tolerant, conservative and adaptive properties of Pando's programming
model (paper Table 1) independently of any communication protocol:

* **Lazy** — a value is read from the input only when some sub-stream asks
  for one (Algorithm 1, line 7).
* **Conservative** — each value is lent to exactly one sub-stream at a time.
* **Fault-tolerant** — when a sub-stream fails (its result stream errors or
  its borrow stream is aborted), the values it had borrowed but not yet
  answered are re-lent to other sub-streams (Algorithm 1,
  ``answerWithFailedValue``).
* **Adaptive** — faster sub-streams ask more often, hence receive more
  values; there is no static partitioning.
* **Ordered** — results are released downstream in the order of their inputs
  through a reordering buffer; :class:`UnorderedStreamLender` relaxes this
  for synchronous-parallel-search workloads (paper section 4.2).

The upstream pump and every sub-stream's result drain run on the core's one
re-entrancy trampoline (:class:`~repro.pullstream.loop.Loop`, through
:func:`~repro.pullstream.sinks.eager_pump` for the drain).  A borrower at the
head of the ask queue is read for at once, so a framer asking again from its
own answer's cascade still fills its frame; an ask queued behind others
waits for the pump's next turn — a crowd of synchronous workers attached
before the source is served on one stack instead of one nested read each.

Usage mirrors the JavaScript ``pull-lend-stream`` module (paper Figure 9)::

    lender = StreamLender()
    result = pull(values(inputs), lender, collect())

    def on_substream(err, sub):
        if err: return
        pull(sub.source, limiter, sub.sink)   # wire to a worker channel

    lender.lend_stream(on_substream)
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..errors import ProtocolError, StreamAborted
from ..pullstream.loop import Loop
from ..pullstream.protocol import DONE, Callback, End, Source, ignore_answer, is_error
from ..pullstream.sinks import eager_pump
from .reorder import ReorderBuffer

__all__ = ["StreamLender", "UnorderedStreamLender", "SubStream", "LenderStats"]


class LenderStats:
    """Counters exposed for tests, benchmarks and the adaptive-share analysis."""

    def __init__(self) -> None:
        self.values_read = 0
        self.values_lent = 0
        self.values_relent = 0
        #: results workers answered; each settles one lent value
        self.results_received = 0
        #: results handed to the output stream
        self.results_delivered = 0
        self.substreams_opened = 0
        self.substreams_failed = 0
        self.substreams_closed = 0
        self.lent_per_substream: Dict[int, int] = {}
        self.results_per_substream: Dict[int, int] = {}

    def as_dict(self) -> Dict[str, Any]:
        """Return a plain-dict snapshot (used by the bench reporting)."""
        return {
            "values_read": self.values_read,
            "values_lent": self.values_lent,
            "values_relent": self.values_relent,
            "results_received": self.results_received,
            "results_delivered": self.results_delivered,
            "substreams_opened": self.substreams_opened,
            "substreams_failed": self.substreams_failed,
            "substreams_closed": self.substreams_closed,
            "lent_per_substream": dict(self.lent_per_substream),
            "results_per_substream": dict(self.results_per_substream),
        }


class SubStream:
    """A bi-directional sub-stream lent to one worker.

    ``source`` produces the values borrowed from the lender's input;
    ``sink`` consumes the corresponding results (in the order the values were
    borrowed).  Both follow the pull-stream protocol, so a sub-stream can be
    wired directly to a network channel: ``pull(sub.source, channel, sub.sink)``.
    """

    pull_role = "duplex"

    __slots__ = ("_lender", "id", "closed", "close_reason", "borrowed")

    def __init__(self, lender: "StreamLender", substream_id: int) -> None:
        self._lender = lender
        self.id = substream_id
        self.closed = False
        self.close_reason: End = None
        self.borrowed: Deque[Tuple[int, Any]] = deque()

    # -- borrow side --------------------------------------------------------
    def source(self, end: End, cb: Callback) -> None:
        self._lender._substream_ask(self, end, cb)

    source.pull_role = "source"

    # -- result side --------------------------------------------------------
    def sink(self, read: Source) -> None:
        eager_pump(read, self._on_result, self._on_end)

    sink.pull_role = "sink"

    def _on_result(self, result: Any) -> None:
        # A closed sub-stream's late results are drained and dropped: its
        # borrowed values were already re-lent.
        if not self.closed:
            self._lender._substream_result(self, result)

    def _on_end(self, end: End) -> None:
        self._lender._close_substream(self, end)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self.closed else "open"
        return f"<SubStream #{self.id} {state} borrowed={len(self.borrowed)}>"


class StreamLender:
    """Lend an input stream to many concurrent sub-streams (ordered output).

    The instance is used as a pull-stream *through*: calling it with the
    upstream ``read`` returns the output source.  Sub-streams are created
    dynamically with :meth:`lend_stream` as workers join.
    """

    #: Whether results are re-ordered to match input order.
    ordered = True

    pull_role = "through"

    def __init__(self) -> None:
        self.stats = LenderStats()
        #: ``TraceLog.emit``-shaped hook (``emit(kind, **fields)``); when set,
        #: a crash-stop sub-stream failure emits a ``substream_failed`` event
        self.on_trace: Optional[Callable[..., Any]] = None
        self._ids = itertools.count()
        self._upstream: Optional[Source] = None
        self._upstream_end: End = None
        self._reading_upstream = False
        self._output_end: End = None
        self._output_waiting: Optional[Callback] = None

        # Values waiting to be (re-)lent after their sub-stream failed.
        self._failed: Deque[Tuple[int, Any]] = deque()
        # Borrow asks waiting for a fresh upstream value.
        self._ask_queue: Deque[Tuple[SubStream, Callback]] = deque()
        # Borrow asks parked after the upstream ended (waitOnOthers).
        self._parked: Deque[Tuple[SubStream, Callback]] = deque()

        self._next_input_index = 0
        self._outstanding = 0  # values lent to live sub-streams, result pending
        self._reorder = ReorderBuffer()
        self._ready_unordered: Deque[Any] = deque()
        self._substreams: List[SubStream] = []
        #: sub-streams not yet closed
        self.open_substreams = 0
        self._pump_upstream = Loop(self._read_upstream).run

    # ------------------------------------------------------------------ API
    def __call__(self, read: Source) -> Source:
        """Connect the upstream *read* and return the output source."""
        if self._upstream is not None:
            raise ProtocolError("StreamLender is already connected to an upstream")
        self._upstream = read
        self._pump_upstream()

        def output(end: End, cb: Callback) -> None:
            self._output_ask(end, cb)

        output.pull_role = "source"
        return output

    def lend_stream(
        self, cb: Callable[[Optional[BaseException], Optional[SubStream]], None]
    ) -> Optional[SubStream]:
        """Create a new sub-stream and hand it to *cb* (``cb(err, sub)``).

        Returns the sub-stream as a convenience.  When the lender's output has
        already been aborted, ``cb`` receives an error and no sub-stream.
        """
        if self._output_end is not None:
            error = (
                self._output_end
                if is_error(self._output_end)
                else StreamAborted("StreamLender output already ended")
            )
            cb(error, None)
            return None
        return self._open_substream(cb)

    def _open_substream(
        self, cb: Callable[[Optional[BaseException], Optional[SubStream]], None]
    ) -> SubStream:
        """Create a sub-stream whatever the output's state; one lent after
        an abort ends on its first borrow."""
        sub = SubStream(self, next(self._ids))
        self._substreams.append(sub)
        self.open_substreams += 1
        self.stats.substreams_opened += 1
        self.stats.lent_per_substream.setdefault(sub.id, 0)
        self.stats.results_per_substream.setdefault(sub.id, 0)
        cb(None, sub)
        return sub

    @property
    def substreams(self) -> List[SubStream]:
        """Live and closed sub-streams created so far (mostly for inspection)."""
        return list(self._substreams)

    # ----------------------------------------------------------- borrow side
    def _substream_ask(self, sub: SubStream, end: End, cb: Callback) -> None:
        if end is not None:
            # The worker side aborted its borrow stream: treat as a failure of
            # that sub-stream so its values are re-lent.
            self._close_substream(sub, end)
            cb(end if is_error(end) else DONE, None)
            return
        if self._output_end is not None or sub.closed:
            cb(self._termination_marker(), None)
            return
        if self._failed:
            self._lend_failed_value(sub, cb)
            return
        if self._upstream_end is not None:
            self._wait_on_others(sub, cb)
            return
        self._ask_queue.append((sub, cb))
        if len(self._ask_queue) == 1:
            # Next in line: read for this asker now, so a borrower asking
            # again from its own answer's cascade (a framer filling a batch)
            # is answered synchronously.  An ask behind others waits for the
            # pump's next turn: nesting a read for someone else would recurse
            # one level per queued synchronous worker.
            self._read_upstream()
        else:
            self._pump_upstream()

    def _lend_failed_value(self, sub: SubStream, cb: Callback) -> None:
        index, value = self._failed.popleft()
        sub.borrowed.append((index, value))
        self._outstanding += 1
        self.stats.values_lent += 1
        self.stats.values_relent += 1
        self.stats.lent_per_substream[sub.id] = (
            self.stats.lent_per_substream.get(sub.id, 0) + 1
        )
        cb(None, value)

    def _wait_on_others(self, sub: SubStream, cb: Callback) -> None:
        """Algorithm 1, ``waitOnOthers``: park until a failed value appears or
        the last result has been received."""
        if self._all_work_done():
            cb(self._substream_termination(), None)
            return
        self._parked.append((sub, cb))

    def _read_upstream(self) -> None:
        """One turn of the upstream pump: lazily read the next input value
        if some borrower is waiting (its answer runs the next turn)."""
        if (
            self._upstream is None
            or self._reading_upstream
            or self._upstream_end is not None
            or not self._ask_queue
        ):
            return
        self._reading_upstream = True
        self._upstream(None, self._upstream_answer)

    def _upstream_answer(self, end: End, value: Any) -> None:
        self._reading_upstream = False
        if end is not None:
            self._upstream_end = end if is_error(end) else DONE
            self._on_upstream_ended()
            return
        index = self._next_input_index
        self._next_input_index += 1
        self.stats.values_read += 1
        borrower = self._pop_live_asker()
        if borrower is None:
            # Every asker disappeared while the read was in flight; keep
            # the value for the next sub-stream that asks.
            self._failed.append((index, value))
            self._dispatch_failed()
        else:
            sub, cb = borrower
            sub.borrowed.append((index, value))
            self._outstanding += 1
            self.stats.values_lent += 1
            self.stats.lent_per_substream[sub.id] = (
                self.stats.lent_per_substream.get(sub.id, 0) + 1
            )
            cb(None, value)
        self._pump_upstream()

    def _pop_live_asker(self) -> Optional[Tuple[SubStream, Callback]]:
        while self._ask_queue:
            sub, cb = self._ask_queue.popleft()
            if not sub.closed:
                return sub, cb
        return None

    def _on_upstream_ended(self) -> None:
        """Re-dispatch queued asks once the input stream has terminated."""
        queued, self._ask_queue = self._ask_queue, deque()
        for sub, cb in queued:
            if sub.closed:
                cb(self._termination_marker(), None)
            elif self._failed:
                self._lend_failed_value(sub, cb)
            else:
                self._wait_on_others(sub, cb)
        self._maybe_finish_output()
        self._maybe_release_parked()

    # ----------------------------------------------------------- result side
    def _substream_result(self, sub: SubStream, result: Any) -> None:
        if not sub.borrowed:
            self._close_substream(
                sub,
                ProtocolError(
                    f"sub-stream #{sub.id} produced a result with no borrowed value"
                ),
            )
            return
        index, _original = sub.borrowed.popleft()
        self._outstanding -= 1
        self.stats.results_received += 1
        self.stats.results_per_substream[sub.id] = (
            self.stats.results_per_substream.get(sub.id, 0) + 1
        )
        if self.ordered:
            self._reorder.put(index, result)
        else:
            self._ready_unordered.append(result)
        self._flush_output()
        self._maybe_release_parked()

    def _close_substream(self, sub: SubStream, end: End) -> None:
        """Handle the crash-stop failure (or normal closure) of a sub-stream."""
        if sub.closed:
            return
        sub.closed = True
        sub.close_reason = end
        self.open_substreams -= 1
        if is_error(end):
            self.stats.substreams_failed += 1
            if self.on_trace is not None:
                self.on_trace(
                    "substream_failed",
                    substream=sub.id,
                    relent=len(sub.borrowed),
                    error=repr(end),
                )
        else:
            self.stats.substreams_closed += 1
        # Re-lend every value the sub-stream still held (conservative: they
        # were only lent to this sub-stream, so no duplicate work exists).
        while sub.borrowed:
            index, value = sub.borrowed.popleft()
            self._outstanding -= 1
            self._failed.append((index, value))
        # Answer this sub-stream's queued/parked asks with termination.
        self._ask_queue = deque(
            (s, cb) for s, cb in self._ask_queue if s is not sub
        )
        still_parked: Deque[Tuple[SubStream, Callback]] = deque()
        for parked_sub, cb in self._parked:
            if parked_sub is sub:
                cb(self._termination_marker(), None)
            else:
                still_parked.append((parked_sub, cb))
        self._parked = still_parked
        self._dispatch_failed()
        self._maybe_finish_output()
        self._maybe_release_parked()

    def _dispatch_failed(self) -> None:
        """Hand re-lendable values to parked borrowers (oldest value first)."""
        while self._failed and self._parked:
            sub, cb = self._parked.popleft()
            if sub.closed:
                cb(self._termination_marker(), None)
                continue
            self._lend_failed_value(sub, cb)

    def _maybe_release_parked(self) -> None:
        """Release parked borrowers with ``done`` once all work completed."""
        if not self._all_work_done():
            return
        parked, self._parked = self._parked, deque()
        for _sub, cb in parked:
            cb(self._substream_termination(), None)

    # ----------------------------------------------------------- output side
    def _output_ask(self, end: End, cb: Callback) -> None:
        if end is not None:
            self._abort(end)
            cb(end if is_error(end) else DONE, None)
            return
        if self._output_waiting is not None:
            cb(ProtocolError("StreamLender output asked twice concurrently"), None)
            return
        self._output_waiting = cb
        self._flush_output()

    def _flush_output(self) -> None:
        if self._output_waiting is None:
            return
        if self.ordered:
            if self._reorder.has_ready():
                cb, self._output_waiting = self._output_waiting, None
                self.stats.results_delivered += 1
                cb(None, self._reorder.pop_ready())
                return
        else:
            if self._ready_unordered:
                cb, self._output_waiting = self._output_waiting, None
                self.stats.results_delivered += 1
                cb(None, self._ready_unordered.popleft())
                return
        self._maybe_finish_output()

    def _maybe_finish_output(self) -> None:
        if self._output_waiting is None:
            return
        if self._stream_complete():
            cb, self._output_waiting = self._output_waiting, None
            cb(self._output_termination(), None)

    def _abort(self, end: End) -> None:
        """Downstream aborted the output: propagate upstream and to sub-streams."""
        if self._output_end is not None:
            return
        self._output_end = end if is_error(end) else DONE
        if self._upstream is not None and self._upstream_end is None:
            self._upstream_end = self._output_end
            self._upstream(end, ignore_answer)
        # Empty the queues before answering: an answer's cascade closes its
        # sub-stream, which must not find (and answer again) the same ask.
        asks = list(self._ask_queue) + list(self._parked)
        self._ask_queue.clear()
        self._parked.clear()
        for _sub, cb in asks:
            cb(self._termination_marker(), None)
        # Close through the regular path so borrowed values are recycled,
        # ``outstanding`` returns to zero, and crashed sub-streams are counted
        # as failures — keeping ``values_lent == results_received +
        # relendable + outstanding`` true even after an abort.
        for sub in list(self._substreams):
            if not sub.closed:
                self._close_substream(sub, self._output_end)

    # ----------------------------------------------------------- predicates
    def _all_work_done(self) -> bool:
        """True when no value remains to lend and none is outstanding."""
        return (
            self._upstream_end is not None
            and self._outstanding == 0
            and not self._failed
        )

    def _stream_complete(self) -> bool:
        """True when every read value has been delivered downstream."""
        if not self._all_work_done():
            return False
        if self.ordered:
            return self._reorder.buffered == 0
        return not self._ready_unordered

    def _termination_marker(self) -> End:
        if is_error(self._output_end):
            return self._output_end
        return DONE

    def _substream_termination(self) -> End:
        """Sub-streams always end normally; errors are reported on the output."""
        return DONE

    def _output_termination(self) -> End:
        if is_error(self._output_end):
            return self._output_end
        if is_error(self._upstream_end):
            return self._upstream_end
        return DONE

    # ----------------------------------------------------------- inspection
    @property
    def ended(self) -> bool:
        """True once the output stream has terminated (downstream abort)."""
        return self._output_end is not None

    @property
    def outstanding(self) -> int:
        """Number of values currently lent to live sub-streams."""
        return self._outstanding

    @property
    def relendable(self) -> int:
        """Number of values waiting to be re-lent after a failure."""
        return len(self._failed)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<{type(self).__name__} read={self.stats.values_read} "
            f"outstanding={self._outstanding} failed={len(self._failed)} "
            f"received={self.stats.results_received} "
            f"delivered={self.stats.results_delivered}>"
        )


class UnorderedStreamLender(StreamLender):
    """StreamLender variant that releases results in completion order.

    The paper (section 4.2) notes that synchronous parallel search (e.g.
    crypto-currency mining) benefits from relaxing the ordering constraint so
    that a valid nonce is reported as soon as possible instead of being held
    back behind uncompleted earlier work units.
    """

    ordered = False
