"""The master's event loop: one selector, one timer heap, every source.

Every waitable of the master process — worker pipes, volunteer sockets,
heartbeats and simulated events, values pushed from other threads — sits on
one :class:`~repro.sched.loop.Loop`, whose clock is real or virtual; an
:class:`EventLoopScheduler` dispatches their work fairly, on one thread,
until its sinks complete (``DistributedMap.drive`` is a run of the map's).
"""

from .event_loop import EventLoopScheduler
from .loop import LOOP_TURN_INTERVAL, Loop
from .sources import EndpointSource, EventSource, PushablePort

__all__ = [
    "EventLoopScheduler",
    "LOOP_TURN_INTERVAL",
    "Loop",
    "EndpointSource",
    "EventSource",
    "PushablePort",
]
