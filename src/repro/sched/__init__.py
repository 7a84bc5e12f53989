"""The master's event loop: one selector, one timer heap, every source.

Every waitable of the master process — worker pipes, volunteer sockets,
heartbeats and simulated events, values pushed from other threads — sits on
one :class:`~repro.sched.loop.Loop`, whose clock is real or virtual; an
:class:`EventLoopScheduler` dispatches their work fairly, on one thread,
until its sinks complete (``DistributedMap.drive`` is a run of the map's).
The names resolve on first use: a volunteer process runs a bare
:class:`~repro.sched.loop.Loop` and never loads the scheduler.
"""

from typing import Any

from .. import _lazy

_EXPORTS = _lazy.by_name(
    {
        "event_loop": ("EventLoopScheduler",),
        "loop": ("LOOP_TURN_INTERVAL", "Loop"),
        "sources": ("EndpointSource", "EventSource", "PushablePort"),
    }
)

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)
