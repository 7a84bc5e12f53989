"""A pull-stream duplex backed by worker processes the pool owns.

The paper's evaluation runs every worker in a separate browser tab — a real
OS process — while the reproduction's ``add_local_worker`` executes the
function synchronously on the interpreter thread, which caps CPU-bound
applications at single-core speed.  :class:`ProcessPoolWorker` closes that
gap: it exposes the same :class:`~repro.pullstream.duplex.Duplex` shape as a
network channel (sink: values in, source: results out, one result frame per
input frame, in borrow order) but computes the frames in *processes*
``multiprocessing.Process`` children, each on its own duplex pipe (a
``socketpair``).

Because the duplex contract is identical, the whole master-side machinery —
``StreamLender`` fault tolerance, ``Limiter`` admission windows,
``batching`` wire frames — composes with it unchanged (paper Figure 9)::

    pool = ProcessPoolWorker("mypackage.tasks:render", processes=4)
    pull(sub.source, batching(8), Limiter(pool, 5), unbatching(), sub.sink)

Flow control: the sink eagerly drains its upstream (exactly like the network
channel adapters, which is why a ``Limiter`` belongs in front).  The children
are spawned on the first frame; a frame is one DATA message in the codec's
layout (:mod:`repro.net.wire`: large ``bytes``/array values ride behind the
control record instead of going through the pickler) written straight to the
least-loaded child — at most one frame running and one prefetched per child,
so a child never idles between frames — and the rest wait in a master-side
queue, where cancelling one is a ``pop``.  A child answers each with one
RESULT message; each child works first-in first-out and the master keeps the
frames in borrow order, so results are delivered in that order whichever
child finished first.  The master's end of each pipe is an
:class:`~repro.net.endpoint.Endpoint` with the :data:`~repro.net.endpoint.PIPE`
framing — what a websocket volunteer is to its gateway.  There is no thread
on either side and the master never waits on a pipe: what a child's pipe does
not take at once waits in the endpoint's outbox, so a child blocked writing a
large result can always be read, and a reply is read as it arrives, so a child
stopped halfway through writing one holds up nobody else.

Crash-stop: a task that raises errors the result stream when its frame
reaches the head of the line, and a child that dies (EOF on its pipe)
errors it at once; ``StreamLender`` treats either as a failed worker and
re-lends the borrowed values elsewhere.  ``close()`` only closes the pipes:
a child stops at EOF — after the frame it is running, never computing a
prefetched one, because answering on the closed pipe fails first — so every
child exits by itself and ``multiprocessing.active_children()`` reaps it.

Who reads the pipes depends on who drives the stream.  Under a
:class:`~repro.core.distributed_map.DistributedMap` the pool is
``blocking=False`` and registered with the map's
:class:`~repro.sched.EventLoopScheduler`: its endpoints sit on the loop's
selector (put there by :class:`~repro.sched.sources.PoolEventSource` through
``Endpoint.watch``, as a gateway does with a volunteer's), an ask whose
head-of-line result is not in yet is parked, and :meth:`poll` delivers it
later — which is what lets several pools pump concurrently from one
interpreter thread.  A bare pool behind a plain ``pull`` has no driver, so
the blocking default ``select``s on the children's pipes itself until the
head frame's result is in.

``transport="shm"`` moves the frame *payloads* off the pipe: large
``bytes``/array values are written once into a
:class:`~repro.net.shm_ring.ShmRing` slot and only the tiny control record
(slot index, length, dtype tag) crosses the pipe, cutting the per-frame
copying that dominates no-op pool throughput on big payloads.  Slot
lifetime is tied to the frame: acquired on submit, reused by the child for
the result, released when the result is read — or when the frame is
cancelled, fails, or the pool shuts down, so the ring cannot leak.  A
payload that fits no slot (or finds the ring exhausted) stays in-band on
the pipe, exactly as with ``transport="pipe"``.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import select
import socket
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Set

from ..analysis.annotations import loop_only
from ..errors import PandoError, ProtocolError, WorkerCrashed
from ..net import wire
from ..net.endpoint import PIPE, Endpoint, data_frame
from ..net.serialization import OOB_MIN_BYTES
from ..net.shm_ring import ShmRing, pack_frame, unpack_frame
from ..pullstream.protocol import DONE, Callback, End, Source, is_error
from ..pullstream.sinks import eager_pump
from .cancel import CancelFlag
from .tasks import FunctionRef, resolve_callable, serve_frames

__all__ = ["ProcessPoolWorker", "default_window"]

#: frames a child holds at most: the one it runs and one prefetched behind it
CHILD_DEPTH = 2

#: Master-side pipe ends open in this process.  A forked child inherits a
#: copy of every one of them — its own, its earlier siblings', other pools' —
#: and closes them first thing: a pipe only reports EOF once *every* copy of
#: the far end is closed, and EOF is how a child learns that its master
#: closed the pool or died.
_MASTER_ENDS: Set[socket.socket] = set()


def default_window(processes: Optional[int]) -> int:
    """Limiter window that keeps *processes* workers busy plus one in reserve.

    Frames, not values: ``processes + 1`` in flight is one frame running in
    every child and a single prefetched frame among them all — ``CHILD_DEPTH``
    lets each child hold one, this window fills only one of those places.
    Filling all of them (``processes * CHILD_DEPTH``) was measured when pool
    results started going down the stream from the reader callback: +1-2 %
    ``values_per_s`` on ``tiny_ordered`` for +30 % p95 (every extra frame
    in flight is a value waiting in a queue), so it stays.
    """
    return max(2, (processes or os.cpu_count() or 1) + 1)


def _child_main(sock: socket.socket, *config: Any) -> None:
    """Entry point of a pool child (see :func:`repro.pool.tasks.serve_frames`)."""
    for inherited in list(_MASTER_ENDS):
        inherited.close()
    serve_frames(sock, *config)


class ProcessPoolWorker:
    """Duplex channel whose far side is a set of worker processes.

    Parameters
    ----------
    fn_ref:
        The processing function, as accepted by
        :func:`repro.pool.tasks.resolve_callable` — a dotted-name string, a
        ``("file", path)`` tuple, or a picklable callable.
    processes:
        Number of children (defaults to ``os.cpu_count()``); all are started
        when the first frame is submitted.
    blocking:
        When True (the default), the source waits on the children's pipes
        until the head-of-line result is in — for a bare pool behind a plain
        ``pull``.  When False, such an ask is parked and delivered by
        :meth:`poll` — the mode every pool under a ``DistributedMap`` runs
        in, where the map's scheduler reads the pipes.
    transport:
        ``"pipe"`` (the default) sends whole frames through the child's
        pipe; ``"shm"`` moves large ``bytes``/array payloads through a
        shared-memory slot ring and sends only control records.
        *slot_count*, *slot_size* and *shm_min_bytes* tune the ring (slots
        per ring, bytes per slot, and the size below which a payload stays
        in-band); they require ``transport="shm"``.
    obs:
        An :class:`~repro.obs.Observability` plane (the owning map's).
        When attached and enabled, every frame carries a trace dict in its
        control metadata — the child measures user-function time, delivery
        observes the per-frame overhead/compute histograms.
    cancel_chunk:
        Bounded-tail cancellation: when set, the children poll a shared
        :class:`~repro.pool.cancel.CancelFlag` every *cancel_chunk* values
        of a frame.  A forced cancellation fan-out (or shutdown) raises the
        flag, so a frame already running stops at its next chunk boundary
        instead of computing the whole batch.
    """

    pull_role = "duplex"

    def __init__(
        self,
        fn_ref: FunctionRef,
        processes: Optional[int] = None,
        blocking: bool = True,
        transport: str = "pipe",
        slot_count: Optional[int] = None,
        slot_size: Optional[int] = None,
        shm_min_bytes: Optional[int] = None,
        obs: Optional[Any] = None,
        cancel_chunk: Optional[int] = None,
    ) -> None:
        self._validate_ref(fn_ref)
        if cancel_chunk is not None and cancel_chunk < 1:
            raise PandoError("cancel_chunk must be at least one value")
        if transport not in ("pipe", "shm"):
            raise PandoError(
                f"unknown pool transport {transport!r}: expected 'pipe' or 'shm'"
            )
        if transport != "shm" and any(
            knob is not None for knob in (slot_count, slot_size, shm_min_bytes)
        ):
            raise PandoError(
                "slot_count/slot_size/shm_min_bytes tune the shared-memory "
                "ring and require transport='shm'"
            )
        self.fn_ref = fn_ref
        self.processes = processes or os.cpu_count() or 1
        self.blocking = blocking
        self.transport = transport
        #: the owning map's observability plane (frame tracing), or None
        self.obs = obs
        #: the shared-memory payload ring (``transport="shm"`` only)
        self.ring: Optional[ShmRing] = None
        self._shm_min_bytes = shm_min_bytes if shm_min_bytes is not None else OOB_MIN_BYTES
        if transport == "shm":
            ring_kwargs = {}
            if slot_count is not None:
                ring_kwargs["slot_count"] = slot_count
            if slot_size is not None:
                ring_kwargs["slot_size"] = slot_size
            self.ring = ShmRing(**ring_kwargs)
        self.cancel_chunk = cancel_chunk
        #: the shared stop flag frames poll between chunks, or None
        self.cancel_flag: Optional[CancelFlag] = (
            CancelFlag() if cancel_chunk is not None else None
        )
        #: the master's end of each child's pipe, ``.process`` being the child
        #: (empty until the first frame, and after shutdown)
        self.children: List[Endpoint] = []
        #: the :class:`~repro.sched.sources.PoolEventSource` whose loop reads
        #: the pipes, when a scheduler drives this pool
        self.watcher: Optional[Any] = None
        self._next_seq = 0
        #: submitted, undelivered frames in submission (= borrow) order
        self._pending: Deque[wire.Frame] = deque()
        #: the tail of ``_pending`` no child has room for yet
        self._queue: Deque[wire.Frame] = deque()
        self._upstream_ended: End = None
        self._result_waiting: Optional[Callback] = None
        self._closed: End = None
        # counters for benches and tests
        self.tasks_submitted = 0
        self.values_dispatched = 0
        self.results_returned = 0
        #: frames cancelled before they were handed to a child
        self.tasks_cancelled = 0
        self.source = self._make_source()
        self.sink = self._make_sink()

    @staticmethod
    def _validate_ref(fn_ref: FunctionRef) -> None:
        """Fail fast, in the parent, on unresolvable or unpicklable functions."""
        if isinstance(fn_ref, (str, tuple)):
            resolve_callable(fn_ref)
            return
        try:
            pickle.dumps(fn_ref)
        except Exception as exc:
            raise PandoError(
                f"processing function {fn_ref!r} is not picklable and cannot "
                f"be shipped to worker processes; pass a 'module:attribute' "
                f"reference instead"
            ) from exc

    # ----------------------------------------------------------- sink side
    def _make_sink(self) -> Callable[[Source], None]:
        def sink(read: Source) -> None:
            def on_end(answer_end: End) -> None:
                self._upstream_ended = answer_end if is_error(answer_end) else DONE
                self._maybe_finish()

            eager_pump(
                read,
                on_value=self._submit,
                on_end=on_end,
                closed_reason=lambda: self._closed,
            )

        sink.pull_role = "sink"
        return sink

    def _stage(self, slots: List[int], values: List[Any]) -> List[Any]:
        """Move a frame's large values into ring slots (appended to *slots*);
        the control entries that name them travel in their place."""
        entries, acquired = pack_frame(self.ring, values, min_bytes=self._shm_min_bytes)
        slots.extend(acquired)
        if self.obs is not None and self.obs.enabled:
            self.obs.observe_payload(
                self.transport, sum(entry[2] for entry in entries if entry[0] == "shm")
            )
        return entries

    def _submit(self, value: Any) -> None:
        slots: List[int] = []
        stage = functools.partial(self._stage, slots) if self.ring is not None else None
        try:
            frame = data_frame(value, self._next_seq, PIPE, self.obs, self.transport, stage)
        except Exception as exc:
            # A value that cannot cross the pipe fails the worker like a
            # crash would: the stream errors and the lender re-lends.
            if self.ring is not None:
                self.ring.release_all(slots)
            self._shutdown(exc)
            return
        frame.slots = slots
        if not self.children:
            self._spawn()
        self._next_seq += 1
        self._pending.append(frame)
        child = min(self.children, key=lambda child: len(child.frames))
        if len(child.frames) < CHILD_DEPTH:
            child.send(frame)
        else:
            self._queue.append(frame)
        self.values_dispatched += frame.count
        self.tasks_submitted += 1
        if self._result_waiting is not None:
            if self.blocking:
                waiting, self._result_waiting = self._result_waiting, None
                self._deliver(waiting)
            else:
                self.poll()

    # ------------------------------------------------------ children, pipes
    def _spawn(self) -> None:
        """Start every child, each on its own duplex pipe."""
        shm = (
            (self.ring.name, self.ring.slot_size, self._shm_min_bytes)
            if self.ring is not None
            else None
        )
        cancel = (
            (self.cancel_flag.name, self.cancel_chunk)
            if self.cancel_flag is not None
            else None
        )
        for _ in range(self.processes):
            master_end, child_end = socket.socketpair()
            _MASTER_ENDS.add(master_end)
            child = Endpoint(
                master_end,
                PIPE,
                process=multiprocessing.Process(
                    target=_child_main,
                    args=(child_end, self.fn_ref, shm, cancel),
                    daemon=True,
                ),
            )
            try:
                child.process.start()
            except BaseException:
                self._close_child(child)
                raise
            finally:
                child_end.close()
            self.children.append(child)
            if self.watcher is not None:
                child.watch(self.watcher.loop, self.watcher.on_filed)

    @staticmethod
    def _close_child(child: Endpoint) -> None:
        _MASTER_ENDS.discard(child.sock)
        child.close()

    def receive(self, child: Endpoint) -> None:
        """File the replies *child*'s endpoint read, refilling the child
        after each; how its stream ended, if it did, ends this worker."""
        while child.inbox and self._closed is None:
            message = child.inbox.popleft()
            try:
                if isinstance(message, Exception):
                    raise message
                # Plain pickle by declaration: the far end is a process this
                # master forked, running the master's own code.
                record, values = wire.decode(message, trusted=True)
                frame = child.claim(record, values)
            except ProtocolError as exc:
                self._shutdown(ProtocolError(f"pool child {child.process.pid}: {exc}"))
                return
            except EOFError as exc:
                # EOF or a reset: the child died, and this worker with it.
                self._shutdown(
                    WorkerCrashed(f"pool child {child.process.pid} failed: {exc!r}")
                )
                return
            frame.reply = (True, values) if record["ok"] else (False, record.get("error"))
            if self._queue:
                child.send(self._queue.popleft())

    def _pump(self, timeout: Optional[float]) -> None:
        """Wait up to *timeout* seconds (None: until something moves) on the
        children's pipes: flush stalled sends, file the replies that came."""
        stalled = [child for child in self.children if child.outbox]
        readable, writable, _ = select.select(self.children, stalled, (), timeout)
        for child in writable:
            child.flush()
        for child in readable:
            if self._closed is None and child.read():  # a failed receive closes every pipe
                self.receive(child)

    # --------------------------------------------------------- source side
    def _make_source(self) -> Source:
        def read(end: End, cb: Callback) -> None:
            if end is not None:
                self._shutdown(end if is_error(end) else DONE)
                cb(end if is_error(end) else DONE, None)
                return
            if self._result_waiting is not None:
                cb(ProtocolError("ProcessPoolWorker source asked twice concurrently"), None)
                return
            # Termination is checked before ``_pending``: close() drops the
            # pending frames, and a read after it reports the close reason.
            if self._closed is not None:
                cb(self._termination(), None)
                return
            if self._pending:
                if self.blocking or self._pending[0].reply is not None:
                    self._deliver(cb)
                else:
                    self._result_waiting = cb
                return
            if self._upstream_ended is not None:
                termination = self._termination()
                self._shutdown(termination)
                cb(termination, None)
                return
            self._result_waiting = cb

        read.pull_role = "source"
        return read

    def _deliver(self, cb: Callback) -> None:
        """Answer with the oldest pending frame's result (a blocking pool
        first waits on the pipes until it is in)."""
        frame = self._pending[0]
        while frame.reply is None:
            self._pump(None)
            if self._closed is not None:
                # A child died: the shutdown dropped every pending frame.
                cb(self._closed, None)
                return
        self._pending.popleft()
        (ok, result), trace = frame.reply, frame.trace
        if not ok:
            # The frame can never be consumed: its slots go back to the ring
            # before the crash-stop teardown (shutdown would also reap them,
            # but release-before-teardown keeps the accounting exact).
            if self.ring is not None:
                self.ring.release_all(frame.slots)
            self._shutdown(result)
            cb(result, None)
            return
        if self.ring is not None:
            # Copy the payloads out, then release the frame's slots — the
            # "release on result read" half of the slot-ownership protocol.
            result = unpack_frame(self.ring, result)
            self.ring.release_all(frame.slots)
        self.results_returned += len(result)
        if trace is not None:
            self.obs.observe_frame(trace)
        cb(None, frame.unwrap(result))

    def _termination(self) -> End:
        """Termination marker with consistent precedence: an error stored by
        the close reason wins, then an upstream error, then DONE."""
        if is_error(self._closed):
            return self._closed
        if is_error(self._upstream_ended):
            return self._upstream_ended
        return DONE

    def _maybe_finish(self) -> None:
        """Answer a parked result ask once the borrow side ended and drained."""
        if self._result_waiting is None or self._pending:
            return
        if self._upstream_ended is None and self._closed is None:
            return
        waiting, self._result_waiting = self._result_waiting, None
        termination = self._termination()
        self._shutdown(termination)
        waiting(termination, None)

    # ----------------------------------------------------- polled delivery
    @loop_only
    def poll(self, limit: Optional[int] = None) -> bool:
        """Deliver ready results to a parked ask (non-blocking mode).

        Returns True when at least one result (or the final termination) was
        handed to the parked callback.  The delivery cascade usually parks a
        fresh ask, so the loop keeps draining as long as the new head-of-line
        result is already in.  *limit* bounds the number of results
        delivered per call — the event-loop scheduler polls with ``limit=1``
        so one hot pool with a backlog of results cannot starve the other
        sources sharing its dispatch round.  Without a scheduler watching
        the pipes, the call first looks at them itself (without waiting).
        """
        if self.watcher is None and self._result_waiting is not None:
            self._pump(0)
        delivered = False
        budget = limit
        while (
            self._result_waiting is not None
            and self._pending
            and self._pending[0].reply is not None
            and (budget is None or budget > 0)
        ):
            waiting, self._result_waiting = self._result_waiting, None
            self._deliver(waiting)
            delivered = True
            if budget is not None:
                budget -= 1
        if (
            self._result_waiting is not None
            and not self._pending
            and (self._upstream_ended is not None or self._closed is not None)
        ):
            self._maybe_finish()
            delivered = True
        return delivered

    def cancel_pending(self, force: bool = False) -> int:
        """Cancel every submitted frame that no child holds yet.

        Returns the number of frames cancelled (also accumulated in
        :attr:`tasks_cancelled`).  This is the cancellation fan-out fast
        path: after a downstream abort (a ``find`` hit), the results of the
        frames still queued behind the children's can never be delivered,
        so computing them only wastes the cores.

        Cancelling is only legal once no result can still be consumed — a
        frame removed from the pending queue would otherwise be silently
        missing from the result stream (or, in a lender composition, be
        matched against the wrong borrowed value).  The pool itself can only
        prove that once it is closed, where shutdown has already reaped the
        queue — so without *force* the call is a conservative no-op.
        *force* is for the driver that **knows** the downstream aborted
        out-of-band (the abort may still be parked in a Limiter gate on its
        way here): the caller asserts no delivered result will be consumed.
        A forced cancellation that empties the queue shuts the pool down —
        with no frame in a child and the downstream gone, nothing can ever
        be owed again.
        """
        if not force and self._closed is None:
            return 0
        if self.cancel_flag is not None:
            # Raise the shared flag first: the frames the children hold are
            # beyond cancelling, but they poll this between chunks — the
            # bounded-tail half of the fan-out.
            self.cancel_flag.set()
        cancelled = self._drop_queue()
        if (
            force
            and not self._pending
            and self._upstream_ended is None
            and self._closed is None
        ):
            self._shutdown(DONE)
        else:
            # Dropping the queued frames may leave nothing owed: answer a
            # parked result ask with the termination so the sub-stream
            # closes now.
            self._maybe_finish()
        return cancelled

    def _drop_queue(self) -> int:
        """Forget the frames no child holds (always the tail of ``_pending``);
        they never ran, so their payload slots go straight back to the ring."""
        cancelled = len(self._queue)
        for _ in range(cancelled):
            frame = self._pending.pop()
            if self.ring is not None:
                self.ring.release_all(frame.slots)
        self._queue.clear()
        self.tasks_cancelled += cancelled
        return cancelled

    @property
    def waiting(self) -> bool:
        """True while a result ask is parked (awaiting poll or new input)."""
        return self._result_waiting is not None

    @property
    def deliverable(self) -> bool:
        """True when :meth:`poll` would hand something to the parked ask."""
        if self._result_waiting is None:
            return False
        if self._pending:
            return self._pending[0].reply is not None
        return self._upstream_ended is not None or self._closed is not None

    @property
    def head_started(self) -> bool:
        """True once the oldest pending frame has been handed to a child."""
        return len(self._pending) > len(self._queue)  # the queue is the tail

    # ------------------------------------------------------------ lifecycle
    def _shutdown(self, reason: End) -> None:
        if self._closed is None:
            self._closed = reason if reason is not None else DONE
        if self.cancel_flag is not None:
            # Set-then-unlink: children already attached read the raised
            # byte through their existing mapping; children attaching after
            # the unlink treat the missing block as raised.
            self.cancel_flag.set()
            self.cancel_flag.close()
        # Closing the pipes is the whole teardown: each child stops at EOF,
        # after the frame it is running (see repro.pool.tasks.serve_frames).
        children, self.children = self.children, []
        for child in children:
            self._close_child(child)
        self._drop_queue()
        if self.ring is not None:
            # Reap every frame's slots — delivered frames already released
            # theirs, and nothing after shutdown can consume the rest — then
            # drop the block.  The counters stay readable for leak checks.
            for frame in self._pending:
                self.ring.release_all(frame.slots)
            self.ring.close()
        # Dropped frames must not be delivered by a later read: the read
        # reports the recorded close reason instead.
        self._pending.clear()
        # A parked result ask must be answered on *any* termination —
        # including close() — so the sub-stream closes and its borrowed
        # values are re-lent instead of being silently stranded (the same
        # leak the Limiter gated-ask fix addresses).
        if self._result_waiting is not None:
            waiting, self._result_waiting = self._result_waiting, None
            waiting(self._closed, None)

    def close(self) -> None:
        """Close the children's pipes (idempotent); each child exits by
        itself once the frame it is running, if any, is done."""
        self._shutdown(DONE)

    @property
    def closed(self) -> bool:
        """True once the pool has been shut down."""
        return self._closed is not None

    @property
    def pending(self) -> int:
        """Number of frames submitted and not yet answered."""
        return len(self._pending)

    def __enter__(self) -> "ProcessPoolWorker":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self.closed else "open"
        return (
            f"<ProcessPoolWorker {self.fn_ref!r} processes={self.processes} "
            f"{state} pending={len(self._pending)}>"
        )
