"""Virtual clock for the discrete-event simulator.

All simulated components (network channels, devices, failure schedules)
reference the same :class:`VirtualClock`, the virtual one of the master
loop's two clocks (:mod:`repro.sched.loop`).  Time is a float number of
seconds that moves only when a timer fires, so a five-minute Table-2
measurement window (paper section 5.1) runs in milliseconds of real time.
"""

from __future__ import annotations

from typing import Callable, List

__all__ = ["VirtualClock"]


class VirtualClock:
    """Monotonically increasing simulated time."""

    #: the loop jumps this clock to the next timer instead of waiting for it
    virtual = True

    def __init__(self, start: float = 0.0) -> None:
        #: current simulated time in seconds; only the advance methods move it
        self.now = float(start)
        self._listeners: List[Callable[[float, float], None]] = []

    def on_advance(self, listener: Callable[[float, float], None]) -> None:
        """Call ``listener(previous, now)`` whenever time actually moves."""
        self._listeners.append(listener)

    def advance_to(self, timestamp: float) -> None:
        """Move forward to *timestamp*; ``ValueError`` if that is the past."""
        previous = self.now
        if timestamp <= previous:
            if timestamp < previous:
                raise ValueError(f"cannot move time backwards: {timestamp} < {previous}")
            return
        self.now = float(timestamp)
        for listener in self._listeners and list(self._listeners):
            listener(previous, self.now)

    def advance_by(self, delta: float) -> None:
        """Move the clock forward by *delta* seconds."""
        if delta < 0:
            raise ValueError(f"cannot advance by a negative delta: {delta}")
        self.advance_to(self.now + float(delta))
