"""Python port of the pull-stream design pattern used by Pando.

The package mirrors the few JavaScript ``pull-stream`` modules the paper's
master composes (sources, throughs, sinks, async-map, pushable, duplex),
adds the ``batching``/``unbatching`` wire framers and a protocol checker
used by the StreamLender random-testing application.  ``split`` and
``merge_unordered`` serve only the perf suite's replay.

Quick example (paper Figure 5)::

    from repro import pullstream as ps

    result = ps.pull(ps.count(10), ps.collect())
    assert result.result() == list(range(1, 11))
"""

from .protocol import (
    DONE,
    Callback,
    End,
    EndMarker,
    ProtocolChecker,
    Sink,
    Source,
    Through,
    check_protocol,
    is_error,
)
from .pull import compose, pull
from .sources import count, error, from_iterable, values
from .throughs import batching, map_, take, through, unbatching
from .sinks import SinkResult, collect, drain, eager_pump, find
from .split import merge_unordered, split
from .async_map import async_map
from .pushable import Pushable, pushable
from .duplex import Duplex, duplex_pair

__all__ = [
    # protocol
    "DONE",
    "Callback",
    "End",
    "EndMarker",
    "ProtocolChecker",
    "Sink",
    "Source",
    "Through",
    "check_protocol",
    "is_error",
    # combinators
    "pull",
    "compose",
    # sources
    "count",
    "error",
    "from_iterable",
    "values",
    # throughs
    "batching",
    "map_",
    "take",
    "through",
    "unbatching",
    # splitter / joiner
    "merge_unordered",
    "split",
    # sinks
    "SinkResult",
    "collect",
    "drain",
    "eager_pump",
    "find",
    # async map
    "async_map",
    # pushable / duplex
    "Pushable",
    "pushable",
    "Duplex",
    "duplex_pair",
]
