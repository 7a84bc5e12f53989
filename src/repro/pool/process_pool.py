"""A pull-stream duplex backed by a pool of OS processes.

The paper's evaluation runs every worker in a separate browser tab — a real
OS process — while the reproduction's ``add_local_worker`` executes the
function synchronously on the interpreter thread, which caps CPU-bound
applications at single-core speed.  :class:`ProcessPoolWorker` closes that
gap: it exposes the same :class:`~repro.pullstream.duplex.Duplex` shape as a
network channel (sink: values in, source: results out, one result frame per
input frame, in borrow order) but dispatches the work to a
``concurrent.futures.ProcessPoolExecutor``.

Because the duplex contract is identical, the whole master-side machinery —
``StreamLender`` fault tolerance, ``Limiter`` admission windows,
``batching`` wire frames — composes with it unchanged (paper Figure 9)::

    pool = ProcessPoolWorker("mypackage.tasks:render", processes=4)
    pull(sub.source, batching(8), Limiter(pool, 5), unbatching(), sub.sink)

Flow control: the sink eagerly drains its upstream (exactly like the network
channel adapters, which is why a ``Limiter`` belongs in front) and submits
one executor task per frame; the source blocks on the oldest pending future,
so later frames keep computing in other processes while the head of line is
awaited.  A task that raises — including a crashed worker process
(``BrokenProcessPool``) — errors the result stream, which ``StreamLender``
treats as a crash-stop failure and re-lends the borrowed values elsewhere.

With ``blocking=False`` the source never blocks: an ask whose head-of-line
future is still running is parked, and the
:class:`~repro.sched.EventLoopScheduler` later calls
:meth:`ProcessPoolWorker.poll` to deliver completed results.  This is the
only mode a :class:`~repro.core.distributed_map.DistributedMap` uses — it is
what lets several pools pump concurrently from one interpreter thread, where
a blocking source would monopolise it and serialise the pools.  The blocking
default remains for a bare pool behind a plain ``pull``, which has no driver.

``transport="shm"`` moves the frame *payloads* off the executor pipe: large
``bytes``/array values are written once into a
:class:`~repro.net.shm_ring.ShmRing` slot and only the tiny control record
(slot index, length, dtype tag) is pickled, cutting the per-frame
serialization that dominates no-op pool throughput on big payloads.  Slot
lifetime is tied to the frame: acquired on submit, reused by the child for
the result, released when the result is read — or when the frame is
cancelled, fails, or the pool shuts down, so the ring cannot leak.  A
payload that fits no slot (or finds the ring exhausted) stays in-band on
the pipe, exactly as with ``transport="pipe"``.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..analysis.annotations import loop_only
from ..errors import PandoError, ProtocolError, WorkerCrashed
from ..net.serialization import OOB_MIN_BYTES, Batch
from ..net.shm_ring import ShmRing, pack_frame, unpack_frame
from ..pullstream.protocol import DONE, Callback, End, Source, is_error
from ..pullstream.sinks import eager_pump
from .cancel import CancelFlag
from .tasks import (
    FunctionRef,
    resolve_callable,
    run_batch,
    run_shm_batch,
)

__all__ = ["ProcessPoolWorker", "default_window"]


def default_window(processes: Optional[int]) -> int:
    """Limiter window that keeps *processes* workers busy plus one in reserve."""
    return max(2, (processes or os.cpu_count() or 1) + 1)


class ProcessPoolWorker:
    """Duplex channel whose far side is a ``ProcessPoolExecutor``.

    Parameters
    ----------
    fn_ref:
        The processing function, as accepted by
        :func:`repro.pool.tasks.resolve_callable` — a dotted-name string, a
        ``("file", path)`` tuple, or a picklable callable.
    processes:
        Pool size (defaults to ``os.cpu_count()``).
    task_timeout:
        Optional per-frame timeout in seconds when awaiting a result; a
        timeout errors the result stream like a crashed worker.
    blocking:
        When True (the default), the source blocks on the head-of-line
        future.  When False, such an ask is parked and must be delivered by
        :meth:`poll` — the mode every pool under a ``DistributedMap`` runs
        in.  ``task_timeout`` cannot be enforced in this mode
        (results are only ever collected from already-done futures), so the
        combination is rejected rather than silently ignored.
    transport:
        ``"pipe"`` (the default) pickles whole frames through the executor
        pipe; ``"shm"`` moves large ``bytes``/array payloads through a
        shared-memory slot ring and pickles only control records.
        *slot_count*, *slot_size* and *shm_min_bytes* tune the ring (slots
        per ring, bytes per slot, and the size below which a payload stays
        in-band); they require ``transport="shm"``.
    obs:
        An :class:`~repro.obs.Observability` plane (the owning map's).
        When attached and enabled, every frame carries a trace dict in its
        control metadata — the child measures user-function time, delivery
        observes the per-frame overhead/compute histograms.
    cancel_chunk:
        Bounded-tail cancellation: when set, every frame carries the name of
        a shared :class:`~repro.pool.cancel.CancelFlag` which the child
        polls every *cancel_chunk* values.  A forced cancellation fan-out
        (or shutdown) raises the flag, so a frame already running stops at
        its next chunk boundary instead of computing the whole batch.
    """

    pull_role = "duplex"

    def __init__(
        self,
        fn_ref: FunctionRef,
        processes: Optional[int] = None,
        task_timeout: Optional[float] = None,
        mp_context: Optional[Any] = None,
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
        if task_timeout is not None and not blocking:
            raise PandoError(
                "task_timeout requires a blocking pool source: the "
                "non-blocking mode only collects futures that are already "
                "done, so the timeout would never fire (bound the run with "
                "DistributedMap.drive(..., timeout=...) instead)"
            )
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
        self.task_timeout = task_timeout
        self.blocking = blocking
        self.transport = transport
        #: the owning map's observability plane (frame tracing), or None
        self.obs = obs
        #: the shared-memory payload ring (``transport="shm"`` only)
        self.ring: Optional[ShmRing] = None
        self._shm_min_bytes = shm_min_bytes
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
        self._executor: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=self.processes, mp_context=mp_context
        )
        #: (future, was_batch, ring slots owned by the frame, frame trace)
        #: in submission (= borrow) order
        self._pending: Deque[Tuple[Future, bool, List[int], Optional[dict]]] = deque()
        self._upstream_ended: End = None
        self._result_waiting: Optional[Callback] = None
        self._closed: End = None
        # counters for benches and tests
        self.tasks_submitted = 0
        self.values_dispatched = 0
        self.results_returned = 0
        #: frames cancelled before their task ever ran (cancellation fan-out)
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

    def _submit(self, value: Any) -> None:
        assert self._executor is not None
        # Every submission is a frame: an un-batched value travels as a
        # frame of one, which ``_deliver`` unwraps again.
        was_batch = isinstance(value, Batch)
        values = list(value.values) if was_batch else [value]
        trace = (
            self.obs.begin_frame(self.transport, values=len(values))
            if self.obs is not None
            else None
        )
        cancel = (
            (self.cancel_flag.name, self.cancel_chunk)
            if self.cancel_flag is not None
            else None
        )
        slots: List[int] = []
        if self.ring is not None:
            min_bytes = (
                self._shm_min_bytes if self._shm_min_bytes is not None else OOB_MIN_BYTES
            )
            entries, slots = pack_frame(self.ring, values, min_bytes=min_bytes)
            try:
                future = self._executor.submit(
                    run_shm_batch,
                    self.fn_ref,
                    self.ring.name,
                    self.ring.slot_size,
                    entries,
                    min_bytes,
                    trace,
                    cancel,
                )
            except Exception:
                self.ring.release_all(slots)
                raise
            if trace is not None:
                self.obs.observe_payload(
                    self.transport,
                    sum(entry[2] for entry in entries if entry[0] == "shm"),
                )
        else:
            future = self._executor.submit(
                run_batch, self.fn_ref, values, trace, cancel
            )
        self._pending.append((future, was_batch, slots, trace))
        if trace is not None:
            self.obs.end_serialize(trace)
        self.values_dispatched += len(values)
        self.tasks_submitted += 1
        if self._result_waiting is not None:
            if self.blocking:
                waiting, self._result_waiting = self._result_waiting, None
                self._deliver(waiting)
            else:
                self.poll()

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
            # Termination is checked before ``_pending``: after close() the
            # pending futures are cancelled, so delivering one would report a
            # bogus WorkerCrashed instead of the close reason.
            if self._closed is not None:
                cb(self._termination(), None)
                return
            if self._pending:
                if self.blocking or self._pending[0][0].done():
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
        """Block on the oldest pending future and answer with its result."""
        future, was_batch, slots, trace = self._pending.popleft()
        try:
            result = future.result(timeout=self.task_timeout)
        except (Exception, CancelledError) as exc:
            # The frame can never be consumed: its slots go back to the ring
            # before the crash-stop teardown (shutdown would also reap them,
            # but release-before-teardown keeps the accounting exact).
            if self.ring is not None:
                self.ring.release_all(slots)
            error = (
                exc
                if isinstance(exc, Exception)
                else WorkerCrashed(f"process pool task failed: {exc!r}")
            )
            self._shutdown(error)
            cb(error, None)
            return
        if trace is not None:
            # The child answered with the traced shape: (payload, trace).
            # Only the child-measured exec_s duration is taken from its
            # copy — the master's dict stays authoritative, because the
            # child's copy was pickled at submit time, before the master
            # recorded serialize_s.
            result, child_trace = result
            trace["exec_s"] = child_trace.get("exec_s", 0.0)
        if self.ring is not None:
            # Copy the payloads out, then release the frame's slots — the
            # "release on result read" half of the slot-ownership protocol.
            result = unpack_frame(self.ring, result)
            self.ring.release_all(slots)
        self.results_returned += len(result)
        if trace is not None:
            self.obs.observe_frame(trace)
        cb(None, Batch(result) if was_batch else result[0])

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
        future is already done.  *limit* bounds the number of results
        delivered per call — the event-loop scheduler polls with ``limit=1``
        so one hot pool with a backlog of done futures cannot starve the
        other sources sharing its dispatch round.
        """
        delivered = False
        budget = limit
        while (
            self._result_waiting is not None
            and self._pending
            and self._pending[0][0].done()
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
        """Cancel every submitted frame whose task has not started running.

        Returns the number of frames cancelled (also accumulated in
        :attr:`tasks_cancelled`).  This is the cancellation fan-out fast
        path: after a downstream abort (a ``find`` hit), the results of the
        frames still queued behind the running ones can never be delivered,
        so waiting for their tasks to compute only wastes the cores.

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
        with no task running and the downstream gone, nothing can ever be
        owed again.
        """
        if not force and self._closed is None:
            return 0
        if self.cancel_flag is not None:
            # Raise the shared flag first: the frames already *running* are
            # beyond future.cancel(), but they poll this between chunks —
            # the bounded-tail half of the fan-out.
            self.cancel_flag.set()
        kept: Deque[Tuple[Future, bool, List[int], Optional[dict]]] = deque()
        cancelled = 0
        while self._pending:
            future, was_batch, slots, trace = self._pending.popleft()
            if future.cancel():
                cancelled += 1
                # A cancelled task never ran, so its payload slots can never
                # be read again: hand them back to the ring immediately.
                if self.ring is not None:
                    self.ring.release_all(slots)
            else:
                kept.append((future, was_batch, slots, trace))
        self._pending = kept
        self.tasks_cancelled += cancelled
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
            return self._pending[0][0].done()
        return self._upstream_ended is not None or self._closed is not None

    @property
    def head_future(self) -> Optional[Future]:
        """The oldest pending future (what a driver should wait on), if any."""
        return self._pending[0][0] if self._pending else None

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
        executor, self._executor = self._executor, None
        if executor is not None:
            for future, _was_batch, _slots, _trace in self._pending:
                if future.cancel():
                    self.tasks_cancelled += 1
            # cancel_futures reaps work items that future.cancel() cannot
            # reach any more (already handed to the executor's call queue).
            executor.shutdown(wait=False, cancel_futures=True)
        # Cancelled futures must not be delivered by a later read: they would
        # surface as WorkerCrashed instead of the recorded close reason.
        if self.ring is not None:
            # Reap every frame's slots — delivered frames already released
            # theirs, and nothing after shutdown can consume the rest — then
            # drop the block.  The counters stay readable for leak checks.
            for _future, _was_batch, slots, _trace in self._pending:
                self.ring.release_all(slots)
            self.ring.close()
        self._pending.clear()
        # A parked result ask must be answered on *any* termination —
        # including close() — so the sub-stream closes and its borrowed
        # values are re-lent instead of being silently stranded (the same
        # leak the Limiter gated-ask fix addresses).
        if self._result_waiting is not None:
            waiting, self._result_waiting = self._result_waiting, None
            waiting(self._closed, None)

    def close(self) -> None:
        """Release the worker processes (idempotent)."""
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
