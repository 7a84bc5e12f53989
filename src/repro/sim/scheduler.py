"""Discrete-event scheduler driving all simulated deployments.

A :class:`Scheduler` is the master loop's timer heap
(:class:`~repro.sched.loop.Timers`) on a :class:`~repro.sim.clock.VirtualClock`:
events due at the same instant run in scheduling order, so a seeded
simulation is reproducible.  It runs on its own (``run``, ``run_until``,
``run_for``) or as the heap of an :class:`~repro.sched.EventLoopScheduler`'s
loop (``register_sim``).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sched.loop import Timer, Timers
from .clock import VirtualClock

__all__ = ["Scheduler", "ScheduledEvent"]

#: a scheduled event's handle (``time``, ``seq``, ``cancelled``, ``cancel()``)
ScheduledEvent = Timer


class Scheduler(Timers):
    """Virtual-time event heap; ``events_processed`` counts what it ran."""

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        super().__init__(clock if clock is not None else VirtualClock())

    def run(self, until: Optional[Callable[[], bool]] = None) -> float:
        """Process events until none is left or *until()*; returns the time."""
        while self.next_event_time() is not None and not (until is not None and until()):
            self.step()
        return self.clock.now

    def run_until(self, timestamp: float) -> float:
        """Process events with time <= *timestamp*, then set the clock there."""
        while (when := self.next_event_time()) is not None and when <= timestamp:
            self.step()
        self.clock.advance_to(max(timestamp, self.clock.now))
        return self.clock.now

    def run_for(self, duration: float) -> float:
        """Process events for *duration* seconds of virtual time."""
        return self.run_until(self.clock.now + duration)
