"""Virtual clock for the discrete-event simulator.

All simulated components (network channels, devices, failure schedules)
reference the same :class:`VirtualClock`, the virtual one of the master
loop's two clocks (:mod:`repro.sched.loop`).  Time is a float number of
seconds that moves only when a timer fires, so a five-minute Table-2
measurement window (paper section 5.1) runs in milliseconds of real time.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """Monotonically increasing simulated time."""

    #: the loop jumps this clock to the next timer instead of waiting for it
    virtual = True

    def __init__(self, start: float = 0.0) -> None:
        #: current simulated time in seconds; only :meth:`advance_to` moves it
        self.now = float(start)

    def advance_to(self, timestamp: float) -> None:
        """Move forward to *timestamp*; ``ValueError`` if that is the past."""
        if timestamp < self.now:
            raise ValueError(f"cannot move time backwards: {timestamp} < {self.now}")
        self.now = float(timestamp)
