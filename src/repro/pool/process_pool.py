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
least-loaded child.  The master keeps no queue of its own: under the
``processes + 1`` window of :func:`default_window` some child always holds
fewer than two frames when the next one comes, so a child never idles
between frames; a bare pool with no ``Limiter`` leaves the rest in the
endpoints' outboxes.  A child answers each frame with one RESULT message;
each child works first-in first-out and the master keeps the frames in borrow
order, so results go out in that order whichever child finished first.

Results leave the way a volunteer's do: pushed into a
:class:`~repro.pullstream.pushable.Pushable`, the pool's result source, every
frame whose reply is in at the head of the line.  A failed head errors the
stream after the results ahead of it, a dead child (EOF on its pipe) at once
— ``StreamLender`` treats either as a failed worker and re-lends the borrowed
values elsewhere — and an upstream that ended with nothing owed ends it; a
downstream abort reaches the teardown through the pushable's ``on_close``.
``close()`` only closes the pipes: a child stops at EOF — after the frame it
is running, never computing a prefetched one, because answering on the closed
pipe fails first — so every child exits by itself and
``multiprocessing.active_children()`` reaps it.

The master's end of each pipe is an :class:`~repro.net.endpoint.Endpoint`
with the :data:`~repro.net.endpoint.PIPE` framing — what a websocket
volunteer is to its gateway — and the pool is an
:class:`~repro.sched.sources.EndpointSource`, as the gateway is: registered
with a :class:`~repro.sched.EventLoopScheduler` (``DistributedMap`` does it on
attachment), its endpoints sit on the loop's selector and each reply is
handled from the reader callback that filed it, which is what lets several
pools pump concurrently from one interpreter thread.  A bare pool behind a
plain ``pull`` has no scheduler, so its source ``select``s on the children's
pipes itself until the head frame's result is in.  There is no thread on
either side and the master never waits on a write: what a child's pipe does
not take at once waits in the endpoint's outbox, so a child blocked writing a
large result can always be read, and a reply is read as it arrives, so a
child stopped halfway through writing one holds up nobody else.

``transport="shm"`` moves the frame *payloads* off the pipe: large
``bytes``/array values are written once into a
:class:`~repro.net.shm_ring.ShmRing` slot and only the tiny control record
(slot index, length, dtype tag) crosses the pipe, cutting the per-frame
copying that dominates no-op pool throughput on big payloads.  Slot
lifetime is tied to the frame: acquired on submit, reused by the child for
the result, released when the result is pushed (its payloads copied out) —
or when the frame fails or the pool shuts down, so the ring cannot leak.  A
payload that fits no slot (or finds the ring exhausted) stays in-band on
the pipe, exactly as with ``transport="pipe"``.
"""

from __future__ import annotations

import functools
import gc
import multiprocessing
import os
import pickle
import select
import socket
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from ..errors import PandoError, ProtocolError, WorkerCrashed
from ..net import wire
from ..net.endpoint import PIPE, Endpoint, close_inherited, data_frame
from ..net.serialization import OOB_MIN_BYTES
from ..net.shm_ring import ShmRing, pack_frame, unpack_frame
from ..pullstream.protocol import DONE, End, Source, is_error
from ..pullstream.pushable import Pushable
from ..pullstream.sinks import eager_pump
from ..sched.sources import EndpointSource
from .cancel import CancelFlag
from .tasks import FunctionRef, resolve_callable, serve_frames

__all__ = ["ProcessPoolWorker", "default_window"]


def default_window(processes: Optional[int]) -> int:
    """Limiter window that keeps *processes* workers busy plus one in reserve.

    Frames, not values: ``processes + 1`` in flight is one frame running in
    every child and a single prefetched frame among them all.  A prefetched
    frame in every child (``2 * processes``) was measured when pool results
    started going down the stream from the reader callback: +1-2 %
    ``values_per_s`` on ``tiny_ordered`` for +30 % p95 (every extra frame
    in flight is a value waiting in a queue), so it stays.
    """
    return max(2, (processes or os.cpu_count() or 1) + 1)


def _child_main(sock: socket.socket, *config: Any) -> None:
    """Entry point of a pool child (see :func:`repro.pool.tasks.serve_frames`):
    first the copies of the master's sockets go (:func:`close_inherited`).

    A forked child inherits the parent's collector switch, and a pool forks
    on its first frame, which may go out while a simulated run has the
    collector paused; the child turns it back on for its whole life.
    """
    close_inherited()
    gc.enable()
    serve_frames(sock, *config)


class ProcessPoolWorker(EndpointSource):
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

    Who reads the pipes follows from registration: once an
    :class:`~repro.sched.EventLoopScheduler` has the pool
    (``scheduler.register(pool)``), its loop does; until then the source
    waits on them itself.
    """

    pull_role = "duplex"

    def __init__(
        self,
        fn_ref: FunctionRef,
        processes: Optional[int] = None,
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
        super().__init__()
        self.fn_ref = fn_ref
        self.processes = processes or os.cpu_count() or 1
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
        self._next_seq = 0
        #: submitted frames not pushed yet, in submission (= borrow) order;
        #: every one of them is in a child's pipe
        self._pending: Deque[wire.Frame] = deque()
        self._upstream_ended: End = None
        self._closed: End = None
        #: the result stream: replies are pushed here in borrow order
        self.results = Pushable(on_close=self._shutdown)
        # counters for benches and tests
        self.tasks_submitted = 0
        self.values_dispatched = 0
        self.results_returned = 0
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
            eager_pump(
                read,
                on_value=self._submit,
                on_end=self._upstream_end,
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
        min(self.children, key=lambda child: len(child.frames)).send(frame)
        self.values_dispatched += frame.count
        self.tasks_submitted += 1
        if self.scheduler is None and self.results.waiting:
            # A bare pool's result ask came before this frame: answer it.
            self._await_head()

    def _upstream_end(self, end: End) -> None:
        self._upstream_ended = end if is_error(end) else DONE
        if not self._pending:
            self._shutdown(self._upstream_ended)

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
                child.close()
                raise
            finally:
                child_end.close()
            self.children.append(child)
            if self.scheduler is not None:
                self.watch(child)

    def attach(self, scheduler: Any) -> None:
        """From registration on, *scheduler*'s loop reads the pipes."""
        super().attach(scheduler)
        for child in self.children:
            self.watch(child)

    def live(self) -> bool:
        # Frames owed are answered when a reply arrives.
        return bool(self._pending)

    def handle(self, child: Endpoint, message: Any) -> None:
        """File one of *child*'s replies and push what is now at the head of
        the line; how its stream ended, if that is the message, ends this
        worker."""
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
            self._shutdown(WorkerCrashed(f"pool child {child.process.pid} failed: {exc!r}"))
            return
        frame.reply = (True, values) if record["ok"] else (False, record.get("error"))
        self._push_heads()

    def _push_heads(self) -> None:
        """Push every frame whose reply is in at the head of borrow order; a
        failed one errors the stream behind them, and nothing left owed to
        an ended upstream ends it."""
        pending, ring = self._pending, self.ring
        while pending and pending[0].reply is not None:
            frame = pending.popleft()
            ok, result = frame.reply
            if ring is not None:
                # Copy the payloads out, then release the frame's slots —
                # the "release on result read" half of slot ownership.
                if ok:
                    result = unpack_frame(ring, result)
                ring.release_all(frame.slots)
            if not ok:
                self._shutdown(result)
                return
            self.results_returned += len(result)
            if frame.trace is not None:
                self.obs.observe_frame(frame.trace)
            self.results.push(frame.unwrap(result))
        if not pending and self._upstream_ended is not None:
            self._shutdown(self._upstream_ended)

    # --------------------------------------------------------- source side
    def _make_source(self) -> Source:
        results = self.results

        def read(end: End, cb: Any) -> None:
            if end is None and self.scheduler is None and not results.buffered:
                self._await_head()
            results(end, cb)

        read.pull_role = "source"
        return read

    def _await_head(self) -> None:
        """No scheduler reads the pipes: wait on them until the head frame's
        result is pushed (or the pool closed)."""
        pending = self._pending
        head = pending[0] if pending else None
        while pending and pending[0] is head:
            stalled = [child for child in self.children if child.outbox]
            readable, writable, _ = select.select(self.children, stalled, ())
            for child in writable:
                child.flush()
            for child in readable:
                child.read()
                while child.inbox and self._closed is None:
                    self.handle(child, child.inbox.popleft())

    # ------------------------------------------------------- cancellation
    def cancel_pending(self, force: bool = False) -> int:
        """The abort fan-out, for a driver that **knows** the downstream
        aborted (*force*: the abort may still be parked in a Limiter gate on
        its way here; without it, nothing).  Every frame is in a child and
        the lender's abort discards its result, so the pool only raises its
        :class:`CancelFlag` — the frames stop at their next chunk boundary —
        and, owing nothing, closes.  Returns the frames the flag reaches.
        """
        if not force or self._closed is not None:
            return 0
        flagged = 0
        if self.cancel_flag is not None:
            self.cancel_flag.set()
            flagged = len(self._pending)
        if not self._pending:
            self._shutdown(DONE)
        return flagged

    # ------------------------------------------------------------ lifecycle
    def _shutdown(self, reason: End) -> None:
        """Tear the pool down once (idempotent) and end the result stream:
        with the error, or — after what was pushed — normally."""
        if self._closed is not None:
            return
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
            child.close()
        self._turns.clear()
        if self.ring is not None:
            # Reap the slots of every frame nothing can consume now — pushed
            # frames already released theirs — then drop the block.  The
            # counters stay readable for leak checks.
            for frame in self._pending:
                self.ring.release_all(frame.slots)
            self.ring.close()
        self._pending.clear()
        # An error the pool closed on wins, then an upstream error, then DONE.
        if is_error(self._closed):
            self.results.error(self._closed)
        elif is_error(self._upstream_ended):
            self.results.error(self._upstream_ended)
        else:
            self.results.end()

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
