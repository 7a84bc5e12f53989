"""Asyncio scheduler subsystem: one event loop driving every delivery source.

The master process waits on heterogeneous asynchronous work — worker-process
pipes, volunteer sockets, simulated-network timers, values pushed from other
threads.  This package makes one Python process behave like the paper's
event-driven master: every waitable registers with an
:class:`EventLoopScheduler`, which dispatches their work as it arrives,
fairly, on a single thread.

Quick example — two pools on one unsharded master, computing concurrently::

    from repro import DistributedMap, pull, values, collect

    dmap = DistributedMap(batch_size=2)       # owns an EventLoopScheduler
    sink = pull(values(inputs), dmap, collect())
    dmap.add_process_pool("repro.pool.workloads:render_frame", processes=2)
    dmap.add_process_pool("repro.pool.workloads:render_frame", processes=2)
    dmap.drive(sink)          # spins the loop until the sink completes
    frames = sink.result()
    dmap.close()
"""

from .event_loop import EventLoopScheduler
from .pump import async_pump
from .sources import EndpointSource, EventSource, PushablePort, SimEventSource

__all__ = [
    "EventLoopScheduler",
    "async_pump",
    "EndpointSource",
    "EventSource",
    "PushablePort",
    "SimEventSource",
]
