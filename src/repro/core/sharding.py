"""ShardedLender — a multi-master lender built from N independent shards.

One :class:`~repro.core.lender.StreamLender` is a single ordering domain:
every value flows through one reorder buffer and one upstream pump, no
matter how many workers join.  ``ShardedLender`` removes that cap by
round-robin splitting the input across *N* independent ``StreamLender``
shards — each with its own reorder buffer, failure queue and
:class:`~repro.core.lender.LenderStats` — and merging the shard outputs back
in **global input order** with the :func:`~repro.pullstream.split.split` /
:func:`~repro.pullstream.split.merge_ordered` pair::

                 ┌─ branch 0 ─ StreamLender #0 ─┐
    input ─ split┤                              ├ merge_ordered ─ output
                 └─ branch 1 ─ StreamLender #1 ─┘

Each shard keeps the full Table-1 property set (lazy, conservative,
fault-tolerant, adaptive, ordered) for its slice of the input; the
round-robin assignment makes the merged interleaving equal to the global
input order.  With ``ordered=False`` the shards become
:class:`~repro.core.lender.UnorderedStreamLender`\\ s fed by
:func:`~repro.pullstream.split.share` and joined by
:func:`~repro.pullstream.split.merge_unordered` instead::

                 ┌─ branch 0 ─ UnorderedStreamLender #0 ─┐
    input ─ share┤                                       ├ merge_unordered
                 └─ branch 1 ─ UnorderedStreamLender #1 ─┘

No interleaving has to be rebuilt, so the input is not dealt round-robin:
each value goes to the shard that has waited longest for one, the lender's
own lazy rule applied across shards, and a shard that falls behind takes
fewer values instead of queueing its round-robin share behind its stall.
Results flow downstream in completion order across **all** shards, serving
the synchronous-parallel-search workloads (paper section 4.2) where the
first answer wins.

Workers attach to a shard through :meth:`lend_stream`, which places them on
the least-loaded shard by default; crash-stopped workers stop counting
towards a shard's load, so churn rebalances later attachments towards
depleted shards.

Fault containment is per shard: a worker crash re-lends its borrowed values
inside its own shard only — the other shards never stall behind the repair.
The merged output terminates as soon as every read value has been delivered
(the joiner knows the global length once the input ends), so a shard whose
workers all crashed after finishing its slice cannot wedge the stream.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import ProtocolError
from ..pullstream.protocol import DONE, Callback, End, Source, is_error
from ..pullstream.split import (
    SplitBranches,
    merge_ordered,
    merge_unordered,
    share,
    split,
)
from .lender import LenderStats, StreamLender, SubStream, UnorderedStreamLender

__all__ = ["ShardedLender"]


class ShardedLender:
    """Lend one input stream through *shards* independent ordering domains.

    Drop-in for :class:`StreamLender` in the master composition: use as a
    pull-stream through, create worker sub-streams with :meth:`lend_stream`.
    ``ordered=True`` (the default) merges the shard outputs back in global
    input order; ``ordered=False`` builds the shards from
    :class:`~repro.core.lender.UnorderedStreamLender` and merges them in
    completion order, so a result computed on any shard is delivered the
    moment it is ready ("first answer wins" search workloads).  Both modes
    keep the dead-shard short-circuit: once every read value has been
    delivered, the merged stream terminates without waiting on a shard whose
    workers all crashed.

    *max_buffer* caps the per-branch buffering of the round-robin splitter
    (see :func:`~repro.pullstream.split.split`): a shard that stalls
    *max_buffer* values behind parks the input pump — back-pressuring its
    faster siblings — instead of accumulating its share of every value
    pumped on their behalf.  It bounds the ordered splitter only: unordered
    shards are fed by :func:`~repro.pullstream.split.share`, which buffers
    nothing, and accept the argument without using it.
    """

    pull_role = "through"

    def __init__(
        self,
        shards: int = 2,
        *,
        ordered: bool = True,
        max_buffer: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("ShardedLender needs at least one shard")
        if max_buffer is not None and max_buffer < 1:
            raise ValueError("max_buffer must be >= 1 (or None for unbounded)")
        self.ordered = ordered
        self.max_buffer = max_buffer
        #: ``TraceLog.emit``-shaped hook; see :meth:`set_trace`
        self.on_trace: Optional[Callable[..., object]] = None
        lender = StreamLender if ordered else UnorderedStreamLender
        self._shards: List[StreamLender] = [lender() for _ in range(shards)]
        self._branches: Optional[SplitBranches] = None
        self._output: Optional[Source] = None
        #: the consumer's abort of the merged output
        self._output_end: End = None

    # ------------------------------------------------------------------ API
    def __call__(self, read: Source) -> Source:
        """Connect the upstream *read* and return the merged output source."""
        if self._branches is not None:
            raise ProtocolError("ShardedLender is already connected to an upstream")
        if self.ordered:
            self._branches = split(
                read,
                len(self._shards),
                on_end=self._on_upstream_end,
                max_buffer=self.max_buffer,
            )
            join = merge_ordered
        else:
            self._branches = share(
                read, len(self._shards), on_end=self._on_upstream_end
            )
            join = merge_unordered
        outputs = [
            lender(branch) for lender, branch in zip(self._shards, self._branches)
        ]
        self._output = join(
            outputs, total=self._known_total, total_end=self._upstream_end_marker
        )
        merged = self._output

        def output(end: End, cb: Callback) -> None:
            if end is not None and self._output_end is None:
                self._output_end = end if is_error(end) else DONE
            merged(end, cb)

        output.pull_role = "source"
        return output

    def lend_stream(
        self,
        cb: Callable[[Optional[BaseException], Optional[SubStream]], None],
        shard: Optional[int] = None,
    ) -> Optional[SubStream]:
        """Create a sub-stream on a shard and hand it to *cb* (``cb(err, sub)``).

        Without an explicit *shard*, the sub-stream is placed on the
        least-loaded shard (fewest open sub-streams, ties to the lowest
        index).  The chosen index is recorded on the sub-stream as
        ``sub.shard``.
        """
        if shard is None:
            shard = self.least_loaded_shard()
        if not 0 <= shard < len(self._shards):
            raise ValueError(
                f"shard index {shard} out of range (have {len(self._shards)} shards)"
            )
        if self.on_trace is not None:
            self.on_trace("shard_place", shard=shard)

        def tagged(err: Optional[BaseException], sub: Optional[SubStream]) -> None:
            if sub is not None:
                sub.shard = shard
            cb(err, sub)

        lender = self._shards[shard]
        if lender.ended and self._output_end is None:
            # The joiner retired this shard because the merged output has
            # every value (or errored); the consumer did not abort, so a late
            # worker gets a sub-stream that ends on its first borrow, as on a
            # drained single lender.
            return lender._open_substream(tagged)
        return lender.lend_stream(tagged)

    def set_trace(self, emit: Callable[..., object]) -> None:
        """Install *emit* (``TraceLog.emit``-shaped) across the composition.

        Worker placements emit ``shard_place`` events here; every shard
        lender's crash-stop failures emit ``substream_failed`` events tagged
        with their shard index (sub-stream ids are only unique per shard).
        """
        self.on_trace = emit
        for index, lender in enumerate(self._shards):
            lender.on_trace = (
                lambda kind, _shard=index, **fields: emit(kind, shard=_shard, **fields)
            )

    def least_loaded_shard(self) -> int:
        """Index of the shard with the fewest **open** sub-streams.

        Closed sub-streams — normal completion or crash-stop — do not count,
        so a shard that lost workers becomes the preferred placement for the
        next attachment (rebalancing under churn).  A shard whose work is
        done (its slice read and every value answered) comes after every
        shard that still has some, whatever its count: a worker placed there
        would borrow nothing, and a shard that just lost its last worker
        counts as few open sub-streams as one whose workers all finished.
        With ``max_buffer`` set (on unordered shards every depth is zero),
        ties between equally-loaded shards break towards the shard whose
        split-branch buffer is **deepest**: that shard is the one whose
        stall is parking the shared input pump, so it is where an extra
        worker relieves the whole pipeline, not just its own slice.
        Remaining ties are broken by the number of sub-streams ever opened
        (then by index), which spreads synchronous workers — whose
        sub-streams complete and close before the next attachment —
        round-robin instead of piling them on shard 0.  Both counts are kept
        by the shard's lender as sub-streams open and close, so a placement
        costs the same with a thousand workers attached as with two.
        """
        depths: Optional[List[int]] = None
        if self.max_buffer is not None and self._branches is not None:
            depths = self._branches.buffer_depths

        def load(index: int) -> tuple:
            lender = self._shards[index]
            backlog = -depths[index] if depths is not None else 0
            ever_opened = lender.stats.substreams_opened
            return (lender.work_done, lender.open_substreams, backlog, ever_opened, index)

        return min(range(len(self._shards)), key=load)

    # ----------------------------------------------------- joiner plumbing
    def _known_total(self) -> Optional[int]:
        """Global stream length, once the upstream has terminated."""
        if self._branches is not None and self._branches.upstream_ended:
            return self._branches.values_read
        return None

    def _upstream_end_marker(self) -> End:
        """Termination the joiner's short-circuit reports: an input stream
        that errored must surface the error downstream (as a single lender
        does), not present the values read so far as a clean completion."""
        if self._branches is not None and self._branches.upstream_end is not None:
            return self._branches.upstream_end
        return DONE

    def _on_upstream_end(self, _end: object) -> None:
        # The global length just became known: a joiner ask parked on a
        # shard that can never answer (all its workers crashed after its
        # slice completed) is short-circuited here.
        if self._output is not None:
            self._output.recheck()

    # ----------------------------------------------------------- inspection
    @property
    def shards(self) -> List[StreamLender]:
        """The per-shard lenders (index = shard id)."""
        return list(self._shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shard_stats(self) -> List[LenderStats]:
        """Per-shard counters, index-aligned with :attr:`shards`."""
        return [lender.stats for lender in self._shards]

    @property
    def stats(self) -> LenderStats:
        """Aggregated counters across every shard (fresh snapshot).

        Per-sub-stream dictionaries are keyed by ``(shard, substream_id)``
        because sub-stream ids are only unique within a shard.
        """
        total = LenderStats()
        for index, lender in enumerate(self._shards):
            stats = lender.stats
            total.values_read += stats.values_read
            total.values_lent += stats.values_lent
            total.values_relent += stats.values_relent
            total.results_delivered += stats.results_delivered
            total.substreams_opened += stats.substreams_opened
            total.substreams_failed += stats.substreams_failed
            total.substreams_closed += stats.substreams_closed
            for sub_id, count in stats.lent_per_substream.items():
                total.lent_per_substream[(index, sub_id)] = count
            for sub_id, count in stats.results_per_substream.items():
                total.results_per_substream[(index, sub_id)] = count
        return total

    @property
    def substreams(self) -> List[SubStream]:
        """Every sub-stream created so far, across all shards."""
        return [sub for lender in self._shards for sub in lender.substreams]

    @property
    def ended(self) -> bool:
        """True once the consumer aborted the merged output, as
        :attr:`StreamLender.ended <repro.core.lender.StreamLender.ended>`.

        A shard the joiner retired (its slice delivered, or nothing to read
        before the input ended) does not count: the map's output merely
        drained, and a worker attaching now gets a sub-stream that ends on
        its first borrow.
        """
        return self._output_end is not None

    @property
    def outstanding(self) -> int:
        """Values currently lent to live sub-streams, across all shards."""
        return sum(lender.outstanding for lender in self._shards)

    @property
    def relendable(self) -> int:
        """Values waiting to be re-lent after failures, across all shards."""
        return sum(lender.relendable for lender in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<ShardedLender shards={len(self._shards)} "
            f"read={self.stats.values_read} outstanding={self.outstanding}>"
        )
