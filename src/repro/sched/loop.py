"""The master's one loop: a selector, one timer heap, a self-pipe and a clock.

Pando's master is one JavaScript process whose sockets and timers share one
event loop; :class:`Loop` is that loop here, the only place the master
waits.  File objects sit on a :class:`selectors.DefaultSelector`, every timer
(a heartbeat, a handshake deadline, a simulated event) is one :class:`Timer`
on one heap ordered by ``(when, seq)``, and another thread crosses over
through :meth:`Loop.wake`, a byte on a self-pipe.  The heap's clock is real
(:class:`MonotonicClock`: the loop waits in ``select`` for the next timer)
or virtual (:class:`~repro.sim.clock.VirtualClock`: it jumps to the next
timer, and with a time scale waits for that timer's wall-clock due time).
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import selectors
import socket
import time
from functools import partialmethod
from typing import Any, Callable, List, Optional

from ..analysis.annotations import mark_loop_thread, unmark_loop_thread
from ..errors import PandoError, SimulationError

__all__ = ["LOOP_TURN_INTERVAL", "Loop", "MonotonicClock", "Timer", "Timers"]

#: Longest the loop fires timers (or the scheduler dispatches productive
#: rounds) without polling the selector, in seconds of ``time.monotonic``.
#: It stays above CPython's GIL switch interval (5 ms by default): a poll
#: drops and at once retakes the GIL, which restarts the switch clock of a
#: thread waiting for it; polls spaced wider let that clock run out, and the
#: interpreter hands the GIL over.
LOOP_TURN_INTERVAL = 0.01


class MonotonicClock:
    """The real clock, ``time.monotonic()``; it moves by itself."""

    virtual = False
    now = property(lambda self: time.monotonic())

    def advance_to(self, timestamp: float) -> None:
        """Nothing to do: a real timer fires once its time has come."""


class Timer(list):
    """One heap entry and its own handle, ``[when, seq, callback, args]``:
    ``(when, seq)`` is unique, so the heap compares two numbers and never
    reaches the callback.  A cancelled entry (no arguments) is dropped."""

    __slots__ = ()
    time = property(operator.itemgetter(0))
    seq = property(operator.itemgetter(1))
    cancelled = property(lambda self: self[3] is None)

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already ran)."""
        self[3] = None


class Timers:
    """A heap of :class:`Timer` entries on a clock (real by default); timers
    due at the same instant fire in scheduling order."""

    def __init__(self, clock: Any = None) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self._heap: List[Timer] = []
        self._seq = itertools.count()
        self.events_processed = 0
        #: past this many events a SimulationError stops a runaway cascade
        self.max_events: Optional[int] = None

    now = property(lambda self: self.clock.now)

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` at clock time *when*."""
        if when < self.clock.now:
            raise SimulationError(f"cannot schedule an event in the past: {when}")
        return self._push(when, callback, args)

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._push(self.clock.now + delay, callback, args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` now, after the timers already due."""
        return self._push(self.clock.now, callback, args)

    def _push(self, when: float, callback: Callable[..., None], args: tuple) -> Timer:
        timer = Timer((when, next(self._seq), callback, args))
        heapq.heappush(self._heap, timer)
        return timer

    def pending(self) -> int:
        """Entries on the heap, cancelled ones included."""
        return len(self._heap)

    def next_event_time(self) -> Optional[float]:
        """When the next live timer is due (None: there is none); cancelled
        entries at the top are dropped on the way."""
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Fire exactly one live timer; False when there is none."""
        if self.next_event_time() is None:
            return False
        self._fire(heapq.heappop(self._heap))
        return True

    def _fire(self, timer: Timer) -> None:
        when, _seq, callback, args = timer
        self.clock.advance_to(when)
        self.events_processed += 1
        if self.max_events is not None and self.events_processed > self.max_events:
            raise SimulationError(f"simulation exceeded {self.max_events} events")
        callback(*args)


class Loop:
    """The selector, the timer heap and the self-pipe of one process: the
    master's, or a volunteer process's own.  Its file-object API
    (``add_reader``/``add_writer`` and their removal) is what an
    :class:`~repro.net.endpoint.Endpoint` watches a socket with.

    The thread that creates a loop owns it until :meth:`close`: it is
    registered with :func:`~repro.analysis.annotations.mark_loop_thread`,
    so ``@loop_only`` code passes the runtime thread asserts there — on the
    master's thread and on an in-process volunteer's alike."""

    def __init__(self) -> None:
        self.timers = Timers()
        #: wall seconds per virtual second while paced, and the anchor pair
        self._scale: Optional[float] = None
        self._anchor: Any = None
        self._selector = selectors.DefaultSelector()
        self._waker, self._wake_end = socket.socketpair()
        self._waker.setblocking(False)
        self._wake_end.setblocking(False)
        self._update(0, self._wake_end, self._drain)
        self._next_poll = 0.0
        self._closed = False
        #: raised by :meth:`stop`; whoever turns the loop lowers it
        self.stopping = False
        #: waits a file event or a wake-up cut short
        self.wakeups = 0
        self._owner = mark_loop_thread()

    def use_timers(self, timers: Timers, time_scale: Optional[float] = None) -> None:
        """Fire *timers* (a simulation's heap) from now on; with *time_scale*
        one virtual second takes that many wall seconds."""
        if timers is not self.timers and self.timers.next_event_time() is not None:
            raise PandoError("register the simulation before the loop sets a timer")
        self.timers, self._scale, self._anchor = timers, time_scale, None

    def _due_in(self, until: Optional[float] = None) -> Optional[float]:
        """Wall seconds until the next timer is due (<= 0: due), or None;
        a timer due after *until* counts as none."""
        timers = self.timers
        when = timers.next_event_time()
        if when is None or (until is not None and when > until):
            return None
        if self._scale is None:
            return 0.0 if timers.clock.virtual else when - time.monotonic()
        if self._anchor is None:
            self._anchor = (time.monotonic(), timers.now)
        wall, virtual = self._anchor
        return wall + (when - virtual) * self._scale - time.monotonic()

    def _update(self, index: int, fileobj: Any, callback: Optional[Callable] = None) -> None:
        """Set *fileobj*'s reader (0) or writer (1).  A key keeps its
        ``[reader, writer]`` list for life, so an event returned for a
        callback removed since finds None."""
        key = self._selector.get_map().get(fileobj)
        callbacks = [None, None] if key is None else key.data
        callbacks[index] = callback
        mask = (callbacks[0] is not None) | (callbacks[1] is not None) << 1
        if key is None:
            if mask:
                self._selector.register(fileobj, mask, callbacks)
        elif mask:
            self._selector.modify(fileobj, mask, callbacks)
        else:
            self._selector.unregister(fileobj)

    add_reader = remove_reader = partialmethod(_update, 0)
    add_writer = remove_writer = partialmethod(_update, 1)

    def wake(self) -> None:
        """Cut a wait short, from any thread."""
        try:
            self._waker.send(b"\0")
        except OSError:  # full (a wake-up is pending anyway) or closed
            pass

    def _drain(self) -> None:
        try:
            self._wake_end.recv(4096)  # what is left keeps the pipe readable
        except (BlockingIOError, InterruptedError):
            pass

    def stop(self) -> None:
        """Raise :attr:`stopping`, from any thread: a wait ends, and so does
        a burst of timers after the callback that called this."""
        self.stopping = True
        self.wake()

    def run_once(
        self, timeout: float, burst: bool = True, until: Optional[float] = None
    ) -> int:
        """One turn: wait in the selector at most *timeout* seconds (less if
        a timer is due sooner; without a wait, poll at most once per
        :data:`LOOP_TURN_INTERVAL`), serve what it returned, then fire the
        due timers — one, or with *burst* all that come due until
        :attr:`stopping` rises or :data:`LOOP_TURN_INTERVAL` has passed.
        A timer due after *until* (a clock time) does not fire.  Returns the
        file events served."""
        due = self._due_in(until)
        wait = timeout if due is None else max(0.0, min(timeout, due))
        served = 0
        if wait > 0 or time.monotonic() >= self._next_poll:
            served = self._poll(wait)
        if due is not None:
            self._fire_due(burst, until)
        return served

    def _poll(self, wait: float) -> int:
        """The loop's one wait."""
        events = self._selector.select(wait)
        if events and wait > 0:
            self.wakeups += 1
        for key, mask in events:
            callbacks = key.data
            if mask & selectors.EVENT_READ and callbacks[0] is not None:
                callbacks[0]()
            if mask & selectors.EVENT_WRITE and callbacks[1] is not None:
                callbacks[1]()
        self._next_poll = time.monotonic() + LOOP_TURN_INTERVAL
        return len(events)

    def _fire_due(self, burst: bool, until: Optional[float]) -> None:
        timers = self.timers
        heap, monotonic = timers._heap, time.monotonic
        # unpaced virtual time, the simulation's hot path: every timer up to
        # the bound is due
        jump = self._scale is None and timers.clock.virtual
        bound = math.inf if until is None else until
        while heap and not self.stopping:
            if not jump:
                due = self._due_in(until)
                if due is None or due > 0:
                    return
            elif heap[0][0] > bound:
                return
            timer = heapq.heappop(heap)
            if timer[3] is not None:
                timers._fire(timer)
                if not burst or monotonic() >= self._next_poll:
                    return

    def close(self) -> None:
        """Close the selector and the self-pipe; the timers stay."""
        if not self._closed:
            self._closed = True
            for closable in (self._selector, self._waker, self._wake_end):
                closable.close()
            unmark_loop_thread(self._owner)

    def is_closed(self) -> bool:
        return self._closed
