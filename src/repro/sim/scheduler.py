"""Discrete-event scheduler driving all simulated deployments.

The scheduler is a heap of ``(time, sequence, event)`` entries on a
:class:`~repro.sim.clock.VirtualClock`; ``(time, sequence)`` is unique, so the
heap orders entries by comparing two numbers and never reaches the event.
Components schedule work with :meth:`Scheduler.call_later` /
:meth:`Scheduler.call_at` / :meth:`Scheduler.call_soon`; the simulation is
advanced with :meth:`run`, :meth:`run_until` or :meth:`run_for`.

Determinism: events scheduled for the same instant run in scheduling order
(FIFO), so a simulation with a fixed random seed is fully reproducible — a
requirement for the StreamLender random-testing application and for stable
benchmark output.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from .clock import VirtualClock

__all__ = ["Scheduler", "ScheduledEvent"]


class ScheduledEvent:
    """Handle for a scheduled callback, allowing cancellation."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., None], args: Tuple
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already ran)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        flag = " cancelled" if self.cancelled else ""
        return f"<ScheduledEvent t={self.time:.6f}{flag}>"


class Scheduler:
    """Virtual-time event loop.

    The scheduler also exposes simple run-time statistics (events processed)
    so benchmarks can report on simulation effort.
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0
        #: maximum number of events before :class:`SimulationError` is raised,
        #: protecting against accidental infinite event cascades.
        self.max_events: Optional[int] = None

    # ----------------------------------------------------------- scheduling
    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.clock.now

    def call_at(
        self, timestamp: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule *callback* to run at absolute virtual time *timestamp*."""
        if timestamp < self.clock.now:
            raise SimulationError(
                f"cannot schedule an event in the past: {timestamp} < {self.clock.now}"
            )
        seq = next(self._seq)
        event = ScheduledEvent(timestamp, seq, callback, args)
        heapq.heappush(self._queue, (timestamp, seq, event))
        return event

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule *callback* to run *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self.clock.now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> ScheduledEvent:
        """Schedule *callback* to run at the current time, after pending events."""
        return self.call_at(self.clock.now, callback, *args)

    # -------------------------------------------------------------- running
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def next_event_time(self) -> Optional[float]:
        """Virtual timestamp of the next live event (``None`` when idle).

        Cancelled events at the head of the queue are discarded on the way,
        so the answer is exact — the asyncio scheduler uses it both for stall
        detection (an idle simulation cannot make progress) and to pace
        virtual time against the wall clock.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Process exactly one live event; False when the queue is empty.

        The single-event granularity is what makes the simulation fair to
        interleave with other ready-callback sources on one event loop: a
        long event cascade returns to the dispatcher between events, so the
        run stops on the very event that completes its sink and every other
        source gets its round.  When the loop's own callbacks get a turn is
        the pump's decision (:data:`repro.sched.pump.LOOP_TURN_INTERVAL`),
        not one turn per event.
        """
        if self.next_event_time() is None:
            return False
        self._step()
        return True

    def run(self, until: Optional[Callable[[], bool]] = None) -> float:
        """Process events until the queue is empty (or *until* returns True).

        Returns the virtual time at which the run stopped.
        """
        self._running = True
        try:
            while self._queue:
                if until is not None and until():
                    break
                self._step()
        finally:
            self._running = False
        return self.clock.now

    def run_until(self, timestamp: float) -> float:
        """Process events with time <= *timestamp*, then set the clock there."""
        self._running = True
        try:
            while self._queue and self._queue[0][0] <= timestamp:
                self._step()
        finally:
            self._running = False
        if timestamp > self.clock.now:
            self.clock.advance_to(timestamp)
        return self.clock.now

    def run_for(self, duration: float) -> float:
        """Process events for *duration* seconds of virtual time."""
        return self.run_until(self.clock.now + duration)

    def _step(self) -> None:
        timestamp, _seq, event = heapq.heappop(self._queue)
        if event.cancelled:
            return
        self.clock.advance_to(timestamp)
        self.events_processed += 1
        if self.max_events is not None and self.events_processed > self.max_events:
            raise SimulationError(
                f"simulation exceeded {self.max_events} events; "
                "likely an unbounded event cascade"
            )
        event.callback(*event.args)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Scheduler t={self.clock.now:.6f} pending={len(self._queue)} "
            f"processed={self.events_processed}>"
        )
