"""DistributedMap — the composition at the heart of Pando's master process.

Paper Figure 7: the master wires a ``StreamLender`` between its input and
output streams; every volunteer that joins contributes a duplex channel which
is connected to a fresh sub-stream through a ``Limiter``.  ``DistributedMap``
packages this wiring into one reusable object, independent of where the
channels come from (simulated WebSocket/WebRTC, thread-backed loopback
channels, or plain in-process workers for testing).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..errors import PandoError
from ..master.registry import VolunteerRegistry
from ..obs.trace import Observability
from ..pullstream import async_map, batching, pull, unbatching
from ..pullstream.duplex import Duplex
from ..pullstream.protocol import ProtocolChecker, Source
from ..pullstream.sinks import SinkResult
from ..sched import EventLoopScheduler
from .lender import StreamLender, SubStream, UnorderedStreamLender
from .limiter import Limiter

__all__ = ["DistributedMap", "MapStats", "WorkerHandle"]

#: LenderStats fields exported as ``pando_lender_*`` families.
_LENDER_FIELDS = (
    ("values_read", "Values read from the map's input stream."),
    ("values_lent", "Values lent to worker sub-streams (first lends)."),
    ("values_relent", "Values re-lent after a sub-stream crash-stop failure."),
    ("results_received", "Results the map's workers answered."),
    ("results_delivered", "Results delivered to the map's output stream."),
    ("substreams_opened", "Worker sub-streams opened."),
    ("substreams_failed", "Worker sub-streams that failed (crash-stop)."),
    ("substreams_closed", "Worker sub-streams that closed cleanly."),
)

#: ProcessPoolWorker counters exported per worker as ``pando_pool_*``.
_POOL_FIELDS = (
    ("tasks_submitted", "Frames submitted to the pool."),
    ("values_dispatched", "Values dispatched to the pool across all frames."),
    ("results_returned", "Result values returned by the pool."),
)

#: ShmRing counters exported per shm-transport worker as ``pando_shm_*``.
_SHM_FIELDS = (
    ("slots_acquired", "Ring slots acquired for frame payloads."),
    ("slots_released", "Ring slots released after delivery or cancellation."),
    ("fallbacks", "Payloads that stayed in-band (no slot fit or ring full)."),
    ("bytes_written", "Payload bytes written into ring slots."),
    ("bytes_read", "Payload bytes read back out of ring slots."),
)

#: EventLoopScheduler counters exported as ``pando_sched_*``.
_SCHED_FIELDS = (
    ("rounds", "Fair dispatch rounds plus timers fired by the scheduler's runs."),
    ("dispatches", "Source dispatches that made progress (rounds and loop callbacks)."),
    ("wakeups", "Wake events that ended a scheduler wait."),
    ("cancellations", "Frames the scheduler's fan-out told to stop (pool cancel flags)."),
    ("stalls", "Scheduler stalls diagnosed (each raised to the caller)."),
)

#: VolunteerRegistry tallies exported as ``pando_volunteers_*``.
_VOLUNTEER_FIELDS = (
    ("joins", "Volunteers that joined, simulated or over a websocket gateway."),
    ("leaves", "Volunteers that left cleanly."),
    ("crashes", "Volunteers that crashed."),
)

#: WsVolunteerGateway counters exported per gateway as ``pando_ws_*``.
_WS_FIELDS = (
    ("volunteers_joined", "Volunteers that completed the websocket handshake."),
    ("volunteers_left", "Volunteers that departed cleanly (bye frame)."),
    ("volunteers_crashed", "Volunteers that vanished mid-stream."),
    ("suspicions", "Heartbeat-timeout suspicions raised."),
    ("frames_sent", "DATA frames sent to volunteers."),
    ("values_sent", "Values sent to volunteers across all frames."),
    ("results_received", "Result values received from volunteers."),
    ("pings_sent", "Heartbeat pings sent across departed connections."),
    ("bytes_sent", "Websocket payload bytes sent to volunteers."),
    ("bytes_received", "Websocket payload bytes received from volunteers."),
)

NodeCallback = Callable[[Optional[BaseException], Any], None]
AsyncFunction = Callable[[Any, NodeCallback], None]


class WorkerHandle:
    """Book-keeping for one worker attached to a :class:`DistributedMap`."""

    def __init__(
        self,
        worker_id: str,
        substream: SubStream,
        limiter: Optional[Limiter],
        pool: Optional[Any] = None,
    ) -> None:
        self.worker_id = worker_id
        self.substream = substream
        self.limiter = limiter
        #: the :class:`~repro.pool.process_pool.ProcessPoolWorker` backing
        #: this worker, when the process-pool backend is used
        self.pool = pool

    @property
    def closed(self) -> bool:
        """True once the worker's sub-stream has been closed (crash or done)."""
        return self.substream.closed

    @property
    def in_flight(self) -> int:
        """Values currently sent to the worker and not yet answered."""
        if self.limiter is not None:
            return self.limiter.in_flight
        return len(self.substream.borrowed)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self.closed else "open"
        return f"<WorkerHandle {self.worker_id} {state} in_flight={self.in_flight}>"


class MapStats:
    """Live view of a map's lender counters plus its volunteer plane.

    Unknown attributes proxy to the lender's
    :class:`~repro.core.lender.LenderStats`, so code that reads
    ``dmap.stats.values_read`` is oblivious to this wrapper.  The volunteer
    plane reads join/leave/crash tallies from the map's one
    :attr:`DistributedMap.registry` — simulated and websocket volunteers
    both record there — and connection-level counters from every websocket
    gateway the map serves.
    """

    def __init__(self, dmap: "DistributedMap") -> None:
        self._dmap = dmap

    def __getattr__(self, name: str) -> Any:
        return getattr(self._dmap.lender.stats, name)

    @property
    def volunteers(self) -> Dict[str, Any]:
        """Registry tallies plus counters summed across the gateways."""
        registry = self._dmap.registry
        gateways = self._dmap._gateways
        return {
            "joined": registry.joins,
            "left": registry.leaves,
            "crashed": registry.crashes,
            "active": len(registry.active),
            "suspicions": sum(g.suspicions for g in gateways),
            "frames_sent": sum(g.frames_sent for g in gateways),
            "values_sent": sum(g.values_sent for g in gateways),
            "results_received": sum(g.results_received for g in gateways),
            "pings_sent": sum(g.pings_sent for g in gateways),
            "bytes_sent": sum(getattr(g, "bytes_sent", 0) for g in gateways),
            "bytes_received": sum(getattr(g, "bytes_received", 0) for g in gateways),
        }

    def as_dict(self) -> Dict[str, Any]:
        """Lender snapshot plus a ``"volunteers"`` sub-dict."""
        data = self._dmap.lender.stats.as_dict()
        data["volunteers"] = self.volunteers
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<MapStats {self.as_dict()!r}>"


class DistributedMap:
    """Apply a function to a stream of values using a dynamic set of workers.

    The object is a pull-stream *through*: place it between a source of
    inputs and a sink of results.  Workers are added at any time with
    :meth:`add_channel` (a duplex connected to a remote worker that applies
    the function), :meth:`add_local_worker` (an in-process worker given the
    function directly) or :meth:`add_process_pool` (a pool of OS processes —
    the backend that realises the paper's observation that Pando "trivially
    enables parallel processing on multicore architectures" at full hardware
    speed).

    The map is one lender (paper Figure 7): a
    :class:`~repro.core.lender.StreamLender`, or with ``ordered=False`` an
    :class:`~repro.core.lender.UnorderedStreamLender` that releases each
    result the moment it is computed, so a search hit is never held back
    behind a slower worker.  ``shards`` and ``split_buffer`` are accepted
    and ignored, names kept for the ``perf/`` suite.

    One driver: every map is pumped by an
    :class:`~repro.sched.EventLoopScheduler` — its own private one, or the
    instance passed as ``scheduler`` to share one loop with a simulation or
    other maps (the literal ``"asyncio"``, a name kept for the ``perf/``
    suite, is a synonym of the default).  Every process
    pool is registered with it on attachment, its pipes read by the loop, so
    any number of pools compute concurrently; anything but
    in-process workers completes under :meth:`drive`.
    """

    pull_role = "through"

    def __init__(
        self,
        ordered: bool = True,
        batch_size: int = 1,
        shards: int = 1,
        split_buffer: Optional[int] = None,
        scheduler: Optional[Any] = None,
        debug: bool = False,
        metrics: bool = True,
        job_id: Optional[str] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.ordered = ordered
        self.batch_size = batch_size
        if isinstance(scheduler, str) and scheduler != "asyncio":
            raise ValueError(
                f"unknown scheduler {scheduler!r}: pass an EventLoopScheduler "
                f"instance to share, or nothing for the map's own"
            )
        self._owns_scheduler = scheduler is None or scheduler == "asyncio"
        #: the :class:`~repro.sched.EventLoopScheduler` driving this map;
        #: :meth:`close` closes it only when the map created it
        self.scheduler = EventLoopScheduler() if self._owns_scheduler else scheduler
        self.lender = StreamLender() if ordered else UnorderedStreamLender()
        #: with ``debug=True`` every worker sub-stream is wrapped in a
        #: :class:`~repro.pullstream.protocol.ProtocolChecker`, so a lender
        #: or limiter protocol violation raises at the faulty call instead
        #: of surfacing as a hang or a duplicated value
        self.debug = debug
        #: the installed checkers (debug mode), in attachment order; their
        #: ``trace`` attributes record every request/answer pair
        self.protocol_checkers: List[ProtocolChecker] = []
        self._workers: Dict[str, WorkerHandle] = {}
        self._pools: List[Any] = []
        self._gateways: List[Any] = []
        self._metrics_endpoints: List[Any] = []
        #: every volunteer that joined this map, simulated or over a
        #: websocket gateway, with its join/leave/crash record
        self.registry = VolunteerRegistry()
        self._counter = 0
        self._fanned_out = False  # drive() fanned an abort out to the pools
        #: this map's observability plane — metrics registry, trace-event
        #: ring buffer, and the per-frame tracer threaded through the
        #: transports.  ``metrics=False`` disables the per-frame hot path
        #: (the untraced arm of ``obs.tracing_overhead_share``); the registry and
        #: trace log always exist, so collectors register either way and
        #: cost nothing until scraped.
        self.obs = Observability(enabled=bool(metrics), job_id=job_id)
        if self.scheduler.trace is None:
            self.scheduler.trace = self.obs.trace
        self.lender.on_trace = self.obs.trace.emit
        self._register_core_collectors()

    # ------------------------------------------------------------------ API
    def __call__(self, read: Source) -> Source:
        """Connect the input stream and return the output stream."""
        return self.lender(read)

    def add_channel(
        self,
        channel: Duplex,
        worker_id: Optional[str] = None,
        batch_size: Optional[int] = None,
        frame_batch: int = 1,
    ) -> WorkerHandle:
        """Attach a worker reachable through the duplex *channel*.

        The channel's sink receives input values; its source must produce one
        result per input, in order.  A :class:`Limiter` bounds the number of
        in-flight values to *batch_size* (defaults to the map's batch size),
        which is how Pando hides network latency.

        With ``frame_batch > 1``, up to that many values are coalesced into
        one :class:`~repro.net.serialization.Batch` DATA frame (and results
        unbatched), amortising the per-frame dispatch cost; the far side of
        the channel must then answer one result frame per input frame, as
        the websocket volunteer does (:mod:`repro.worker.ws_volunteer` runs
        each frame whole).  The Limiter window counts frames, not values.

        Raises :class:`~repro.errors.PandoError` — before any wiring — when
        the map's output has already terminated (see :meth:`closed`) or when
        *worker_id* is already attached.
        """
        worker_id = self._claim_worker_id(worker_id)
        # Construct the Limiter (which validates the window) before lending a
        # sub-stream, so an invalid batch_size cannot leave a phantom open
        # sub-stream behind.
        window = batch_size if batch_size is not None else self.batch_size
        limiter = Limiter(channel, window)
        sub = self._lend_substream(worker_id)
        self._wire(sub, limiter, frame_batch, worker_id)
        handle = WorkerHandle(worker_id, sub, limiter)
        self._workers[worker_id] = handle
        return handle

    def add_local_worker(
        self,
        fn: AsyncFunction,
        worker_id: Optional[str] = None,
    ) -> WorkerHandle:
        """Attach an in-process worker that applies *fn* directly.

        *fn* follows the Pando processing-function convention
        ``fn(value, cb)`` with ``cb(err, result)`` (paper Figure 2).

        Raises :class:`~repro.errors.PandoError` — before any wiring — when
        the map's output has already terminated (see :meth:`closed`) or when
        *worker_id* is already attached.
        """
        worker_id = self._claim_worker_id(worker_id)
        sub = self._lend_substream(worker_id)
        pull(self._checked_source(sub, worker_id), async_map(fn), sub.sink)
        handle = WorkerHandle(worker_id, sub, None)
        self._workers[worker_id] = handle
        return handle

    def add_process_pool(
        self,
        fn_ref: Any,
        processes: Optional[int] = None,
        batch_size: Optional[int] = None,
        worker_id: Optional[str] = None,
        transport: str = "pipe",
        slot_count: Optional[int] = None,
        slot_size: Optional[int] = None,
        shm_min_bytes: Optional[int] = None,
        cancel_chunk: Optional[int] = None,
    ) -> WorkerHandle:
        """Attach a pool of OS processes executing *fn_ref* in parallel.

        *fn_ref* is anything :func:`repro.pool.tasks.resolve_callable`
        accepts: a ``"module:attribute"`` string, a ``("file", path)`` Pando
        module reference, or a picklable callable (plain ``fn(value)`` and
        node-style ``fn(value, cb)`` conventions are both supported).

        ``batch_size`` values (defaulting to the map's batch size) travel to
        the pool in one frame — one inter-process round trip — and the
        :class:`Limiter` keeps ``processes + 1`` frames in flight
        (:func:`~repro.pool.default_window`), so every process stays busy
        while the head-of-line result is awaited.  One handle therefore
        drives *processes*-way parallelism through a single sub-stream, while
        crash-stop semantics (a task error or a killed worker process) remain
        exactly those of a remote channel: the sub-stream fails and borrowed
        values are re-lent.

        The pool is registered with the map's scheduler, whose loop reads its
        pipes: results go down the stream — and several pools pump
        concurrently — under :meth:`drive`, never during attachment.

        ``transport="shm"`` moves large ``bytes``/array payloads through a
        shared-memory slot ring instead of pickling them through the
        children's pipes (see
        :class:`~repro.pool.process_pool.ProcessPoolWorker`); *slot_count*,
        *slot_size* and *shm_min_bytes* tune the ring.

        ``cancel_chunk`` bounds the post-abort tail: frames poll a shared
        stop flag every *cancel_chunk* values, so the cancellation fan-out
        of :meth:`drive` stops the frames the children hold — at their next
        chunk boundary instead of after the whole batch.
        """
        from ..pool import ProcessPoolWorker, default_window

        worker_id = self._claim_worker_id(worker_id)
        # The pool starts its processes on the first frame, so creating it
        # before the late-attachment check in _lend_substream costs nothing;
        # on failure it is closed before the error propagates.
        pool = ProcessPoolWorker(
            fn_ref,
            processes=processes,
            transport=transport,
            slot_count=slot_count,
            slot_size=slot_size,
            shm_min_bytes=shm_min_bytes,
            obs=self.obs,
            cancel_chunk=cancel_chunk,
        )
        try:
            frame = batch_size if batch_size is not None else self.batch_size
            limiter = Limiter(pool, default_window(pool.processes))
            # Register before lending: a failed lend leaves only an inert
            # source behind (the closed pool never reports ready), whereas a
            # failed registration after lending would orphan a sub-stream.
            self.scheduler.register(pool)
            sub = self._lend_substream(worker_id)
        except Exception:
            pool.close()
            raise
        self._wire(sub, limiter, frame, worker_id)
        handle = WorkerHandle(worker_id, sub, limiter, pool=pool)
        self._workers[worker_id] = handle
        self._pools.append(pool)
        self._register_process_pool_collectors(worker_id, pool)
        return handle

    def serve_volunteers(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        fn_ref: Any = None,
        **options: Any,
    ) -> Any:
        """Serve a real websocket gateway so external volunteers can join.

        Binds a :class:`~repro.net.ws_transport.WsVolunteerGateway` on
        *host*:*port* (0 picks a free port) and registers it with the map's
        scheduler.  Every process that runs ``pando volunteer <gateway.url>`` (or
        :func:`~repro.worker.ws_volunteer.run_volunteer`) while :meth:`drive`
        spins becomes an ordinary channel worker: *fn_ref* travels to it in
        the welcome frame, a heartbeat monitor guards its liveness, and a
        volunteer that vanishes mid-frame fails its sub-stream so the lender
        re-lends its borrowed values.  Remaining *options* are forwarded to
        the gateway constructor (heartbeat timing, frame batching, ...).

        Returns the started gateway; its ``url`` is the address to hand out.
        :meth:`close` stops it.
        """
        from ..net.ws_transport import WsVolunteerGateway

        gateway = WsVolunteerGateway(self, host=host, port=port, fn_ref=fn_ref, **options)
        gateway.start()
        self._gateways.append(gateway)
        self._register_gateway_collectors(gateway)
        return gateway

    # --------------------------------------------------------- observability
    def serve_metrics(self, port: int = 0, host: str = "127.0.0.1") -> Any:
        """Serve this map's metrics registry over HTTP (Prometheus text).

        Binds a scrape endpoint on *host*:*port* (0 picks a free port) and
        returns it; ``endpoint.url`` is the address to scrape.  It runs on a
        daemon thread, so a scrape is answered while :meth:`drive` spins and
        after it returned alike.  :meth:`close` stops every endpoint started
        here.
        """
        from ..obs.http_endpoint import ThreadedMetricsEndpoint

        endpoint = ThreadedMetricsEndpoint(self.obs.registry, host=host, port=port)
        endpoint.start()
        self._metrics_endpoints.append(endpoint)
        return endpoint

    def _register_core_collectors(self) -> None:
        """Export the lender, scheduler and page-fault counters at scrape time.

        The counters themselves stay plain attributes (the hot paths that
        bump them remain lock-free and tests keep reading them directly);
        the callbacks read them live at scrape/snapshot time only.
        """
        registry = self.obs.registry
        for field, help_text in _LENDER_FIELDS:
            registry.register_callback(
                f"pando_lender_{field}_total",
                help_text,
                (lambda stats=self.lender.stats, name=field: getattr(stats, name)),
            )
        for field, help_text in _SCHED_FIELDS:
            registry.register_callback(
                f"pando_sched_{field}_total",
                help_text,
                (lambda sched=self.scheduler, name=field: getattr(sched, name, 0)),
            )
        for field, help_text in _VOLUNTEER_FIELDS:
            registry.register_callback(
                f"pando_volunteers_{field}_total",
                help_text,
                (lambda volunteers=self.registry, name=field: getattr(volunteers, name)),
            )
        try:
            import resource
        except ImportError:  # no getrusage on this platform: no family
            return
        # "Where did the time go" includes the kernel: a run that re-faults
        # its payload memory on every copy (see keep_payload_heap) shows
        # hundreds of these per MiB value.
        for process, who in (
            ("master", resource.RUSAGE_SELF),
            ("children", resource.RUSAGE_CHILDREN),
        ):
            registry.register_callback(
                "pando_process_minor_faults_total",
                "Minor page faults (ru_minflt): fresh pages handed out by the "
                "kernel; children are counted once they have been reaped.",
                (lambda who=who: resource.getrusage(who).ru_minflt),
                labels={"process": process},
            )

    def _register_process_pool_collectors(self, worker_id: str, pool: Any) -> None:
        """Export one pool's counters (and its shm ring's) at scrape time."""
        registry = self.obs.registry
        labels = {"worker": worker_id}
        for field, help_text in _POOL_FIELDS:
            registry.register_callback(
                f"pando_pool_{field}_total",
                help_text,
                (lambda pool=pool, name=field: getattr(pool, name)),
                labels=labels,
            )
        ring = getattr(pool, "ring", None)
        if ring is None:
            return
        for field, help_text in _SHM_FIELDS:
            registry.register_callback(
                f"pando_shm_{field}_total",
                help_text,
                (lambda ring=ring, name=field: getattr(ring, name)),
                labels=labels,
            )
        registry.register_callback(
            "pando_shm_slots_in_use",
            "Ring slots currently held by in-flight frames.",
            (lambda ring=ring: ring.in_use),
            labels=labels,
            kind="gauge",
        )
        registry.register_callback(
            "pando_shm_leaked_slots",
            "Ring slots still held after close (a leak; must stay 0).",
            (lambda ring=ring: ring.in_use if ring.closed else 0),
            labels=labels,
            kind="gauge",
        )

    def _register_gateway_collectors(self, gateway: Any) -> None:
        """Export one websocket gateway's counters at scrape time."""
        registry = self.obs.registry
        labels = {"gateway": f"{gateway.host}:{gateway.port}"}
        for field, help_text in _WS_FIELDS:
            registry.register_callback(
                f"pando_ws_{field}_total",
                help_text,
                (lambda gw=gateway, name=field: getattr(gw, name, 0)),
                labels=labels,
            )

    # ------------------------------------------------------------ internals
    def _claim_worker_id(self, worker_id: Optional[str]) -> str:
        """Validate an explicit worker id (or generate one).

        A duplicate id would silently overwrite the existing
        :class:`WorkerHandle`, orphaning its sub-stream from inspection and
        ``in_flight`` accounting — so it is rejected up front, before any
        wiring or pool spawning.
        """
        if worker_id is None:
            return self._next_worker_id()
        if worker_id in self._workers:
            raise PandoError(
                f"worker id {worker_id!r} is already attached to this map"
            )
        return worker_id

    def _lend_substream(self, worker_id: str) -> SubStream:
        """Create the sub-stream for a new worker, failing cleanly when the
        map's output has already terminated (late attachment)."""
        if self.lender.ended:
            raise PandoError(
                f"cannot attach {worker_id}: the distributed map output has "
                f"already terminated"
            )
        box: List[Any] = []

        def on_substream(err: Optional[BaseException], sub: Optional[SubStream]) -> None:
            box.append(err if err is not None else sub)

        self.lender.lend_stream(on_substream)
        result = box[0]
        if result is None or isinstance(result, BaseException):
            raise PandoError(
                f"cannot lend a sub-stream to {worker_id}: {result!r}"
            ) from (result if isinstance(result, BaseException) else None)
        return result

    def _checked_source(self, sub: SubStream, worker_id: str) -> Source:
        """The sub-stream source, protocol-checked in debug mode."""
        if not self.debug:
            return sub.source
        checker = ProtocolChecker(sub.source, name=f"sub-stream:{worker_id}")
        self.protocol_checkers.append(checker)
        return checker

    def _wire(
        self, sub: SubStream, limiter: Limiter, frame_batch: int, worker_id: str
    ) -> None:
        """Figure 9 wiring, optionally framing values into batches."""
        source = self._checked_source(sub, worker_id)
        if frame_batch > 1:
            pull(source, batching(frame_batch), limiter, unbatching(), sub.sink)
        else:
            pull(source, limiter, sub.sink)

    # ------------------------------------------------------------ pumping
    def drive(
        self,
        *sinks: SinkResult,
        timeout: Optional[float] = None,
        until: Optional[float] = None,
    ) -> None:
        """Pump the map's pools, volunteers and channels until *sinks* complete.

        A pool's children and a gateway's volunteers answer on sockets the
        map's :class:`~repro.sched.EventLoopScheduler` reads, and ports only
        enqueue, so somebody must spin that loop for their results to go
        down the stream: this does, until the sinks complete.  All stream
        callbacks run on the calling thread, so the single-threaded
        pull-stream machinery needs no locks.

        Cancellation fan-out: the moment the map's output aborts — a
        ``find`` sink hit, or any sink that cut the stream short — the
        lender's abort discards what the pools still owe, and every pool
        whose sub-stream closed raises its cancel flag (``cancel_chunk``),
        so the frames its children run stop at their next chunk boundary
        instead of computing results nobody can receive.

        A map with only local workers completes during attachment; calling
        ``drive`` afterwards returns immediately.

        On a simulation's loop (``register_sim``), *until* bounds the run in
        virtual time (:meth:`~repro.sched.EventLoopScheduler.run`): no timer
        due after it fires, and the run returns, without error and with or
        without *sinks*, once none is due at or before it.

        Raises :class:`~repro.errors.PandoError` when *timeout* (seconds)
        elapses, or when no source can make progress while a sink is still
        pending.
        """
        self.scheduler.run(
            *sinks,
            timeout=timeout,
            until=until,
            # the stream aborted: pool work in flight is now garbage; the
            # lender's end is final, so one fan-out serves every later run
            aborted=lambda: not self._fanned_out
            and (self.closed or any(sink.aborted for sink in sinks)),
            on_abort=self._cancel_pool_pending,
        )

    def _cancel_pool_pending(self) -> int:
        """Fan the abort out to every pool, once.

        A pool whose sub-stream already closed (which an abort does to every
        attached worker) is cancelled *forcibly*: its results provably cannot
        be delivered, even though the stream termination may still be parked
        in its Limiter gate on the way to the pool.
        """
        self._fanned_out = True
        total = 0
        for handle in self._workers.values():
            if handle.pool is not None:
                total += handle.pool.cancel_pending(force=handle.closed)
        return total

    # ------------------------------------------------------------ lifecycle
    @property
    def closed(self) -> bool:
        """True once the output stream has terminated (downstream abort).

        Attaching a worker afterwards raises
        :class:`~repro.errors.PandoError`.  Attaching after the output merely
        *drained* (all inputs processed, no abort) is allowed and harmless:
        the worker's sub-stream ends on its first borrow and the returned
        handle reports ``closed`` immediately.
        """
        return self.lender.ended

    def close(self) -> None:
        """Release every attached gateway, metrics endpoint and process pool
        — and the scheduler, when the map created it; a shared scheduler
        instance passed in by the caller is left running.  Gateways go
        first: their teardown needs the scheduler's loop to close volunteer
        connections cleanly.  Idempotent."""
        for gateway in self._gateways:
            gateway.stop()
        endpoints, self._metrics_endpoints = self._metrics_endpoints, []
        for endpoint in endpoints:
            endpoint.stop()
        for pool in self._pools:
            pool.close()
        if self._owns_scheduler:
            self.scheduler.close()

    def __enter__(self) -> "DistributedMap":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------ inspection
    @property
    def workers(self) -> Dict[str, WorkerHandle]:
        """Mapping of worker id to handle for every worker ever attached."""
        return dict(self._workers)

    @property
    def active_workers(self) -> List[WorkerHandle]:
        """Handles of workers whose sub-stream is still open."""
        return [handle for handle in self._workers.values() if not handle.closed]

    @property
    def stats(self) -> "MapStats":
        """Live stats view: lender counters plus the volunteer plane.

        Attribute access proxies to the underlying
        :class:`~repro.core.lender.LenderStats` (``stats.values_read`` etc.
        keep working unchanged); :meth:`MapStats.as_dict` additionally folds
        in the volunteer registry's tallies and the websocket gateway
        counters, so one snapshot covers both the stream plane and the
        volunteer plane.
        """
        return MapStats(self)

    def _next_worker_id(self) -> str:
        # Skip ids an explicit attach already took, so a generated id can
        # never silently overwrite an existing handle either.
        while True:
            self._counter += 1
            worker_id = f"worker-{self._counter}"
            if worker_id not in self._workers:
                return worker_id

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<DistributedMap ordered={self.ordered} "
            f"workers={len(self._workers)} active={len(self.active_workers)}>"
        )
