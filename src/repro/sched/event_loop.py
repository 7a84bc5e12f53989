"""One asyncio event loop driving every ready-callback source in a process.

Pando's master is an event-driven JavaScript process; the reproduction's is
an :class:`EventLoopScheduler`, the only driver a
:class:`~repro.core.distributed_map.DistributedMap` has (its own private one
unless the caller shares an instance between maps and simulations):

* every waitable is registered as an :class:`~repro.sched.sources.EventSource`
  (pools, simulations, thread-safe pushable ports, gateways, custom sources),
  and registering hands the source its scheduler;
* there is one way to wait: on the loop.  A pool's worker pipes sit on the
  loop's selector beside a gateway's volunteer sockets (each an
  :class:`~repro.net.endpoint.Endpoint`, both owners an
  :class:`~repro.sched.sources.EndpointSource`), timers pace simulations,
  and other threads cross over through :meth:`EventLoopScheduler.wake` — no
  polling on any path;
* dispatch is **fair round-robin**: each round starts one source later than
  the previous one and gives every ready source exactly one unit of work,
  so a hot pool with a backlog cannot starve a simulated channel (a reply a
  child's pipe or a volunteer's socket filed goes down the stream from the
  selector callback that read it, one message per readable event);
* when a sink aborts (a ``find`` hit), the scheduler immediately fans the
  cancellation out to every registered pool, whose cancel flag stops the
  frames its children run instead of letting them compute results nobody
  can receive.

All stream callbacks run on the thread that called :meth:`run`, so the
single-threaded pull-stream machinery needs no locks — exactly the
guarantee the blocking implementations gave, now without the blocking.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional

from ..analysis.annotations import (
    any_thread,
    loop_only,
    mark_loop_thread,
    unmark_loop_thread,
)
from ..errors import PandoError
from ..pullstream.pushable import Pushable
from ..pullstream.sinks import SinkResult
from .sources import EventSource, PushablePort, SimEventSource

__all__ = ["EventLoopScheduler"]

#: Safety-net wait when every wake-up path is armed; a lost wake-up (which
#: would be a bug) degrades to polling at this period instead of deadlocking.
DEFAULT_POLL_INTERVAL = 0.05


class EventLoopScheduler:
    """Own an asyncio loop and dispatch registered sources until sinks finish.

    The scheduler is reusable: :meth:`run` may be called any number of times
    (the CLI runs one pipeline, the benches run several), sources stay
    registered across runs, and :meth:`close` releases the loop.  It is also
    inspectable without asyncio — :meth:`dispatch_round` is a plain
    synchronous method, which is how the property-test suite checks the
    fairness and exactly-once dispatch guarantees deterministically.
    """

    def __init__(self, poll_interval: float = DEFAULT_POLL_INTERVAL) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.poll_interval = poll_interval
        self._sources: List[EventSource] = []
        self._cursor = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake_event: Optional[asyncio.Event] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._running = False
        self._closed = False
        self._dispatch_listeners: List[Callable[[EventSource], None]] = []
        #: the running pump's abort predicate, until its fan-out has happened
        self._aborted: Optional[Callable[[], bool]] = None
        #: first exception a :meth:`dispatch_now` delivery raised; the pump
        #: re-raises it out of :meth:`run`
        self._callback_error: Optional[BaseException] = None
        # counters for tests and benches
        self.rounds = 0
        self.dispatches = 0
        self.wakeups = 0
        self.cancellations = 0
        #: pump stalls diagnosed (each one raised a PandoError to the caller)
        self.stalls = 0
        #: a :class:`~repro.obs.TraceLog` when the owning map attached one;
        #: the pump emits pump_timeout/pump_stall/abort_fanout events to it
        self.trace: Optional[Any] = None

    # ------------------------------------------------------------ registry
    def register(self, source: EventSource) -> EventSource:
        """Register *source* (appended to the round-robin order) and hand it
        this scheduler (``source.attach``) — a process pool, for one, reads
        its pipes on this loop from then on."""
        if self._closed:
            raise PandoError("EventLoopScheduler is closed")
        if source in self._sources:
            raise PandoError("source is already registered with this scheduler")
        self._sources.append(source)
        source.attach(self)
        return source

    def register_sim(
        self, sim: Any, time_scale: Optional[float] = None
    ) -> SimEventSource:
        """Register a discrete-event :class:`~repro.sim.scheduler.Scheduler`.

        With *time_scale* ``None`` simulated events run whenever the loop is
        free; a positive value paces one virtual second to ``time_scale``
        wall-clock seconds (loop timers wake the scheduler when the next
        event is due).
        """
        return self.register(SimEventSource(sim, time_scale=time_scale))

    def register_pushable(self, pushable: Optional[Pushable] = None) -> PushablePort:
        """Register (and return) a thread-safe ingress port."""
        return self.register(PushablePort(pushable))

    @property
    def sources(self) -> List[EventSource]:
        """The registered sources, in round-robin order."""
        return list(self._sources)

    def add_dispatch_listener(self, listener: Callable[[EventSource], None]) -> None:
        """Call ``listener(source)`` after every successful dispatch.

        Used by tests and benches to observe the interleaving; keep the
        listener cheap, it runs on the hot path.
        """
        self._dispatch_listeners.append(listener)

    # ------------------------------------------------------- dispatch core
    @loop_only
    def dispatch_round(self) -> int:
        """Give every currently-ready source one unit of work.

        The starting source rotates by one every round, so sources that are
        permanently ready share the loop in strict rotation — the fairness
        property the hypothesis suite pins down.  Returns the number of
        sources that made progress.
        """
        # Snapshot: a dispatch may register sources mid-round; the round in
        # progress keeps iterating the membership it started with.
        sources = list(self._sources)
        count = len(sources)
        if count == 0:
            return 0
        start = self._cursor % count
        self._cursor += 1
        dispatched = 0
        for offset in range(count):
            source = sources[(start + offset) % count]
            if source.ready() and source.dispatch():
                dispatched += 1
                self.dispatches += 1
                for listener in self._dispatch_listeners:
                    listener(source)
        self.rounds += 1
        return dispatched

    @loop_only
    def dispatch_now(self, source: EventSource) -> None:
        """One unit of *source*'s work, from the loop callback that made it
        ready instead of one pump round later.

        For a source whose readiness is a selector event (an
        :class:`~repro.sched.sources.EndpointSource`: one readable pipe or
        socket, one filed message), so the per-source fairness bound of
        :meth:`dispatch_round` holds: one event, one dispatch, and the loop
        serves every other callback before this source's next one.  The pump
        is woken only for what only it can do — a source that is still ready
        (a backlog goes through the fair round), the abort fan-out (within
        one delivery of a ``find`` hit), and an exception: asyncio logs and
        drops what escapes a reader callback, so the first one is kept here
        and the pump re-raises it out of :meth:`run`.  Between runs nothing
        is delivered: the work waits for the next run's first round.
        """
        if self._wake_event is None:
            return
        try:
            if source.dispatch():
                self.dispatches += 1
                for listener in self._dispatch_listeners:
                    listener(source)
            aborted = self._aborted
            if source.ready() or (aborted is not None and aborted()):
                self.wake_from_loop()
        except BaseException as exc:
            if self._callback_error is None:
                self._callback_error = exc
            self.wake_from_loop()

    def cancel_pools(self, force: bool = False) -> int:
        """Fan cancellation out to every source (a pool's cancel flag).

        Without *force* the fan-out is conservative: each source only
        cancels what it can prove nobody will consume (see
        :meth:`~repro.pool.process_pool.ProcessPoolWorker.cancel_pending`),
        which for a pool is nothing.  *force* carries the
        caller's assertion that **every** registered pool's results are now
        garbage — the contract of :meth:`run`'s ``aborted`` predicate, which
        is how the abort fallback calls this.  Drivers that know exactly
        which pools serve an aborted stream pass ``on_abort`` to :meth:`run`
        instead — ``DistributedMap`` does, forcing only the pools whose
        sub-stream closed.  Returns the number of frames told to stop across
        all sources; also accumulated in :attr:`cancellations`.
        """
        cancelled = sum(source.cancel_pending(force=force) for source in self._sources)
        self.cancellations += cancelled
        return cancelled

    def _any_ready(self) -> bool:
        return any(source.ready() for source in self._sources)

    def _any_live(self) -> bool:
        return any(source.live() for source in self._sources)

    # ------------------------------------------------------------- wake-ups
    @any_thread
    def wake(self) -> None:
        """Wake a waiting :meth:`run` from any thread (no-op when not waiting)."""
        loop, event = self._loop, self._wake_event
        if loop is not None and event is not None and not loop.is_closed():
            loop.call_soon_threadsafe(event.set)

    @loop_only
    def wake_from_loop(self) -> None:
        """:meth:`wake` for callers already on the loop thread (a selector
        callback): sets the event directly, no self-pipe write."""
        event = self._wake_event
        if event is not None:
            event.set()

    @loop_only
    def wake_after(self, delay: float) -> None:
        """Arm a loop timer waking the scheduler in *delay* seconds.

        Only the earliest requested timer is kept; it is re-armed on every
        await, so a stale long timer never delays a nearer deadline.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        if self._timer is not None:
            if self._timer.when() <= loop.time() + delay:
                return
            self._timer.cancel()
        self._timer = loop.call_later(delay, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self.wake()

    # ------------------------------------------------------------- running
    def run(
        self,
        *sinks: SinkResult,
        timeout: Optional[float] = None,
        poll_interval: Optional[float] = None,
        aborted: Optional[Callable[[], bool]] = None,
        on_abort: Optional[Callable[[], int]] = None,
    ) -> None:
        """Spin the event loop until every sink in *sinks* completes.

        *poll_interval* overrides the scheduler's safety-net wait period for
        this run only.  *aborted* (optional) is consulted between rounds:
        the first time it returns True the cancellation fans out — through
        *on_abort* when given (a driver that knows exactly which pools
        serve the aborted stream, e.g. ``DistributedMap``), otherwise
        through ``cancel_pools(force=True)`` across every registered
        source, since returning True from *aborted* asserts that no pool
        driven by this run will deliver another consumable result.  Raises
        :class:`~repro.errors.PandoError` on *timeout* (seconds) or when no
        source can make progress while a sink is still pending.
        """
        from .pump import async_pump

        if not sinks:
            raise PandoError("EventLoopScheduler.run needs at least one sink")
        if self._running:
            raise PandoError("EventLoopScheduler.run is not reentrant")
        loop = self.loop
        self._running = True
        # the thread spinning the loop owns every @loop_only function for
        # the duration of the run (checked only in debug mode)
        previous_owner = mark_loop_thread()
        try:
            loop.run_until_complete(
                async_pump(
                    self,
                    sinks,
                    timeout=timeout,
                    poll_interval=poll_interval,
                    aborted=aborted,
                    on_abort=on_abort,
                )
            )
        finally:
            unmark_loop_thread(previous_owner)
            self._running = False
            self._callback_error = None
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._wake_event = None

    def run_coroutine(self, coro: Any) -> Any:
        """Run *coro* to completion on the scheduler's private loop.

        For setup/teardown work that needs the loop but happens between
        runs — binding a websocket server before :meth:`run` spins, closing
        its connections after.  Not available while :meth:`run` is spinning
        (the loop is already busy then; use tasks or sources instead).
        """
        if self._running:
            coro.close()
            raise PandoError(
                "run_coroutine is not available while run() is spinning; "
                "schedule a task on the loop instead"
            )
        return self.loop.run_until_complete(coro)

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The scheduler's private asyncio loop (created on first use)."""
        if self._closed:
            raise PandoError("EventLoopScheduler is closed")
        if self._loop is None or self._loop.is_closed():
            # A private loop: never installed as the thread's current loop,
            # so embedding applications keep their own asyncio state.
            self._loop = asyncio.new_event_loop()
        return self._loop

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the event loop (idempotent); sources are left untouched."""
        self._closed = True
        loop, self._loop = self._loop, None
        if loop is not None and not loop.is_closed():
            loop.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "EventLoopScheduler":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self._closed else ("running" if self._running else "idle")
        return (
            f"<EventLoopScheduler {state} sources={len(self._sources)} "
            f"rounds={self.rounds} dispatches={self.dispatches}>"
        )
