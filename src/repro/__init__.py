"""repro — a Python reproduction of *Pando: Personal Volunteer Computing in
Browsers* (Lavoie, Hendren, Desprez, Correia — Middleware 2019).

The package provides:

* :mod:`repro.pullstream` — the pull-stream design pattern (sources, throughs,
  sinks, async-map, pushable, duplex);
* :mod:`repro.core` — the paper's contribution: ``StreamLender``, ``Limiter``,
  ``stubborn`` and ``DistributedMap``;
* :mod:`repro.sched` — the master's event loop (a selector and one timer
  heap on a real or a virtual clock) driving pools, gateways, simulated
  events and pushable ports;
* :mod:`repro.net` — simulated WebSocket/WebRTC channels, heartbeats,
  signalling server and NAT model;
* :mod:`repro.devices` — the Table-2 device catalogue and simulated devices;
* :mod:`repro.sim` — virtual clock, discrete-event scheduler, network
  profiles, failure injection, metrics and deployment scenarios;
* :mod:`repro.master` / :mod:`repro.worker` — the worker-code bundler, the
  volunteer registry, and the simulated browser-tab and real websocket
  volunteers;
* :mod:`repro.apps` — the seven applications of the paper's section 4;
* :mod:`repro.cli` — the Unix-pipeline command-line interface;
* :mod:`repro.bench` — the harness regenerating every table and figure of the
  evaluation.

Quickstart (local, in-process workers)::

    from repro import DistributedMap, pull, values, collect

    dmap = DistributedMap(batch_size=2)
    result = pull(values(range(10)), dmap, collect())
    dmap.add_local_worker(lambda x, cb: cb(None, x * x))
    assert result.result() == [x * x for x in range(10)]
"""

from . import pullstream
from .pullstream import (
    DONE,
    async_map,
    batch,
    collect,
    count,
    drain,
    filter_,
    from_iterable,
    infinite,
    map_,
    pull,
    take,
    through,
    values,
)
from .core import (
    DistributedMap,
    Limiter,
    ReorderBuffer,
    StreamLender,
    UnorderedStreamLender,
    WorkerHandle,
    limit,
    stubborn,
)
from .master import Bundle, bundle_function, bundle_module
from .pool import ProcessPoolWorker
from .sched import EventLoopScheduler
from .errors import (
    BundlingError,
    ConnectionClosed,
    DeploymentError,
    ExternalTransferError,
    PandoError,
    ProtocolError,
    StreamAborted,
    TaskError,
    WorkerCrashed,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # pull-stream essentials re-exported at top level
    "pullstream",
    "DONE",
    "async_map",
    "batch",
    "collect",
    "count",
    "drain",
    "filter_",
    "from_iterable",
    "infinite",
    "map_",
    "pull",
    "take",
    "through",
    "values",
    # core abstractions
    "DistributedMap",
    "Limiter",
    "ReorderBuffer",
    "StreamLender",
    "UnorderedStreamLender",
    "WorkerHandle",
    "limit",
    "stubborn",
    # process-pool backend
    "ProcessPoolWorker",
    # event-loop scheduler
    "EventLoopScheduler",
    # worker-code bundling
    "Bundle",
    "bundle_function",
    "bundle_module",
    # errors
    "BundlingError",
    "ConnectionClosed",
    "DeploymentError",
    "ExternalTransferError",
    "PandoError",
    "ProtocolError",
    "StreamAborted",
    "TaskError",
    "WorkerCrashed",
]
