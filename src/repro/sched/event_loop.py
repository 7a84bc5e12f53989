"""The scheduler: one :class:`~repro.sched.loop.Loop` driving every source.

An :class:`EventLoopScheduler` is the only driver a
:class:`~repro.core.distributed_map.DistributedMap` has (its own, or one
shared with other maps and a simulation).  There is one way to wait, the
loop's ``select``: pool pipes and volunteer sockets sit on its selector,
heartbeats and simulated events on its heap, and other threads cross over
through :meth:`EventLoopScheduler.wake`.  A reply a pipe or socket filed
goes down the stream from the selector callback that read it
(:meth:`~EventLoopScheduler.dispatch_now`); a backlog, a thread-fed port or
a custom source is dispatched in fair round-robin rounds.  A run stops on
the callback that completes its last sink (the sinks' ``on_done`` raises the
loop's stop flag) or, on a simulation's virtual clock, once no timer is due
by its ``until`` bound; an abort fans out to the pools when a sink completes
or a file event arrives, never per simulated event.  All stream callbacks
run on the thread that called :meth:`~EventLoopScheduler.run`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

from ..analysis.annotations import any_thread, loop_only, mark_loop_thread, unmark_loop_thread
from ..errors import PandoError
from ..pullstream.pushable import Pushable
from ..pullstream.sinks import SinkResult
from .loop import Loop
from .sources import EventSource, PushablePort

__all__ = ["EventLoopScheduler"]

#: Safety-net wait when nothing is due; a lost wake-up (which would be a
#: bug) degrades to polling at this period instead of deadlocking.
DEFAULT_POLL_INTERVAL = 0.05

_STALLED = (
    "EventLoopScheduler stalled: a sink has not completed and no registered "
    "source can make progress"
)


class EventLoopScheduler:
    """Own a :class:`~repro.sched.loop.Loop` and dispatch registered sources
    until sinks finish.  Reusable: sources stay registered across runs, and
    :meth:`close` releases the loop."""

    def __init__(self, poll_interval: float = DEFAULT_POLL_INTERVAL) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.poll_interval = poll_interval
        self._sources: List[EventSource] = []
        self._cursor = 0
        self._loop: Optional[Loop] = None
        self._running = False
        self._closed = False
        self._dispatch_listeners: List[Callable[[EventSource], None]] = []
        #: the first exception a dispatch_now delivery raised, for run to raise
        self._callback_error: Optional[BaseException] = None
        #: fair rounds, plus timers fired during runs
        self.rounds = 0
        self.dispatches = 0
        self.wakeups = 0
        self.cancellations = 0
        self.stalls = 0
        #: a :class:`~repro.obs.TraceLog` when the owning map attached one
        #: (pump_timeout, pump_stall and abort_fanout events)
        self.trace: Optional[Any] = None

    def register(self, source: EventSource) -> EventSource:
        """Append *source* to the round-robin order and ``attach`` it."""
        if self._closed:
            raise PandoError("EventLoopScheduler is closed")
        if source in self._sources:
            raise PandoError("source is already registered with this scheduler")
        self._sources.append(source)
        source.attach(self)
        return source

    def register_sim(self, sim: Any, time_scale: Optional[float] = None) -> Any:
        """Fire a :class:`~repro.sim.scheduler.Scheduler`'s events as this
        loop's timers, in its virtual time (paced: *time_scale* wall seconds
        per virtual second); returns *sim*."""
        if time_scale is not None and time_scale <= 0:
            raise ValueError("time_scale must be positive (or None to run eagerly)")
        self.loop.use_timers(sim, time_scale)
        return sim

    def register_pushable(self, pushable: Optional[Pushable] = None) -> PushablePort:
        """Register (and return) a thread-safe ingress port."""
        return self.register(PushablePort(pushable))

    sources = property(lambda self: list(self._sources))

    def add_dispatch_listener(self, listener: Callable[[EventSource], None]) -> None:
        """Call ``listener(source)`` after every successful dispatch."""
        self._dispatch_listeners.append(listener)

    @loop_only
    def dispatch_round(self) -> int:
        """Give every ready source one unit of work, starting one source
        later than the previous round; returns how many made progress."""
        sources = list(self._sources)  # a dispatch may register sources
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
                self._dispatched(source)
        self.rounds += 1
        return dispatched

    @loop_only
    def dispatch_now(self, source: EventSource) -> None:
        """One unit of *source*'s work, from the selector callback that made
        it ready, for a run only; what it raises is kept for :meth:`run`."""
        if not self._running:
            return
        try:
            if source.dispatch():
                self._dispatched(source)
        except BaseException as exc:
            if self._callback_error is None:
                self._callback_error = exc

    def _dispatched(self, source: EventSource) -> None:
        self.dispatches += 1
        for listener in self._dispatch_listeners:
            listener(source)

    def cancel_pools(self, force: bool = False) -> int:
        """Fan cancellation out to every source; returns the frames told to
        stop.  *force* asserts every pool's results are garbage (``aborted``)."""
        cancelled = sum(source.cancel_pending(force=force) for source in self._sources)
        self.cancellations += cancelled
        return cancelled

    @any_thread
    def wake(self) -> None:
        """Wake a waiting :meth:`run` from any thread."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.wake()

    def run(
        self,
        *sinks: SinkResult,
        timeout: Optional[float] = None,
        poll_interval: Optional[float] = None,
        aborted: Optional[Callable[[], bool]] = None,
        on_abort: Optional[Callable[[], int]] = None,
        until: Optional[float] = None,
    ) -> None:
        """Turn the loop until every sink in *sinks* completes: one fair
        round, then one loop turn (a wait only when nothing progressed).
        *poll_interval* overrides the safety-net wait.  *aborted*'s first
        True fans the cancellation out, through *on_abort* when given, else
        ``cancel_pools(force=True)``.  Raises
        :class:`~repro.errors.PandoError` on *timeout* (seconds) or a stall.

        *until* bounds the run in virtual time, as ``Scheduler.run_until``
        does: a timer due after it does not fire, and once no timer is due
        at or before it the run returns without error, the clock standing
        at *until*.  Sources are served meanwhile but do not extend the run.
        A run given *until* needs no sink.  A loop on the real clock refuses
        it (bound a real run with *timeout*).
        """
        if not sinks and until is None:
            raise PandoError("EventLoopScheduler.run needs at least one sink, or until")
        if self._running:
            raise PandoError("EventLoopScheduler.run is not reentrant")
        safety_net = self.poll_interval if poll_interval is None else poll_interval
        if safety_net <= 0:
            raise PandoError("poll_interval must be positive")
        loop = self.loop
        if until is not None and not loop.timers.clock.virtual:
            raise PandoError("until bounds a run in virtual time; this loop's clock is real")
        deadline = None if timeout is None else time.monotonic() + timeout
        timers, fired, wakeups = loop.timers, loop.timers.events_processed, loop.wakeups
        for sink in sinks:
            sink.on_done(lambda _sink: loop.stop())
        loop.stopping = True  # the first pass looks at the sinks and the abort
        cancelled = False
        self._running = True
        owner = mark_loop_thread()  # checked in debug mode only
        try:
            while True:
                if self._callback_error is not None:
                    raise self._callback_error
                if loop.stopping:
                    loop.stopping = False
                    cancelled = cancelled or self._fan_out(aborted, on_abort)
                    if sinks and all(sink.done for sink in sinks):
                        break
                # ``>=`` so that ``timeout=0`` fires on the first pass
                if deadline is not None and time.monotonic() >= deadline:
                    pending = sum(not sink.done for sink in sinks)
                    self._emit("pump_timeout", timeout=timeout, pending=pending)
                    raise PandoError("EventLoopScheduler.run timed out")
                if until is not None:
                    when = loop.timers.next_event_time()
                    if when is None or when > until:
                        clock = loop.timers.clock
                        clock.advance_to(max(until, clock.now))
                        break
                wait, sources = 0.0, self._sources
                if not self.dispatch_round() and not any(s.ready() for s in sources):
                    if loop.timers.next_event_time() is None and not any(
                        s.live() for s in sources
                    ):
                        self.stalls += 1
                        pending = sum(not sink.done for sink in sinks)
                        self._emit("pump_stall", sources=len(sources), pending=pending)
                        raise PandoError(_STALLED)
                    wait = safety_net
                    if deadline is not None:
                        wait = min(wait, max(deadline - time.monotonic(), 0.001))
                # Timers fire back to back only while no source takes turns
                # with them; a file event is a reason to look again.
                if loop.run_once(wait, burst=not self._sources, until=until):
                    loop.stopping = True
        finally:
            unmark_loop_thread(owner)
            self._running = False
            self._callback_error = None
            self.rounds += timers.events_processed - fired
            self.wakeups += loop.wakeups - wakeups

    def _fan_out(self, aborted: Any, on_abort: Any) -> bool:
        if aborted is None or not aborted():
            return False
        if on_abort is not None:
            count = on_abort()
            self.cancellations += count
        else:
            count = self.cancel_pools(force=True)
        self._emit("abort_fanout", cancelled=count)
        return True

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.emit(kind, **fields)

    def spin(self, seconds: float, until: Optional[Callable[[], bool]] = None) -> None:
        """Turn the loop between runs for up to *seconds* or until *until()*:
        sockets are served and timers fire, nothing goes down a stream."""
        if self._running:
            raise PandoError("spin is not available while run() turns the loop")
        loop = self.loop
        loop.stopping = False  # raised by a late sink of an earlier run
        deadline = time.monotonic() + seconds
        while not (until is not None and until()):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            loop.run_once(remaining)

    @property
    def loop(self) -> Loop:
        if self._closed:
            raise PandoError("EventLoopScheduler is closed")
        if self._loop is None:
            self._loop = Loop()
        return self._loop

    def close(self) -> None:
        """Release the loop (idempotent); sources are left untouched."""
        self._closed = True
        if self._loop is not None:
            self._loop.close()

    closed = property(lambda self: self._closed)

    def __enter__(self) -> "EventLoopScheduler":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()
