"""Python port of the pull-stream design pattern used by Pando.

The package mirrors the small ecosystem of JavaScript ``pull-stream`` modules
the paper's implementation composes (sources, throughs, sinks, async-map,
pushable, cat, duplex) and adds a protocol checker used by the
StreamLender random-testing application.

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
    is_done,
    is_end,
    is_error,
)
from .pull import compose, pull
from .sources import count, empty, error, from_iterable, infinite, keys, once, values
from .throughs import (
    batch,
    batching,
    filter_,
    filter_not,
    flatten,
    map_,
    map_batches,
    non_unique,
    take,
    tap,
    through,
    unbatch,
    unbatching,
    unique,
)
from .sinks import (
    SinkResult,
    collect,
    collect_sync,
    drain,
    drain_sync,
    eager_pump,
    find,
    log,
    on_end,
    reduce,
)
from .split import SplitBranches, merge_ordered, merge_unordered, share, split
from .async_map import async_map
from .pushable import Pushable, pushable
from .duplex import Duplex, connect_duplex, duplex, duplex_pair
from .cat import cat

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
    "is_done",
    "is_end",
    "is_error",
    # combinators
    "pull",
    "compose",
    # sources
    "count",
    "empty",
    "error",
    "from_iterable",
    "infinite",
    "keys",
    "once",
    "values",
    # throughs
    "batch",
    "batching",
    "filter_",
    "filter_not",
    "flatten",
    "map_",
    "map_batches",
    "non_unique",
    "take",
    "tap",
    "through",
    "unbatch",
    "unbatching",
    "unique",
    # splitter / joiner
    "SplitBranches",
    "merge_ordered",
    "merge_unordered",
    "share",
    "split",
    # sinks
    "SinkResult",
    "collect",
    "collect_sync",
    "drain",
    "drain_sync",
    "eager_pump",
    "find",
    "log",
    "on_end",
    "reduce",
    # async map
    "async_map",
    # pushable / duplex / cat
    "Pushable",
    "pushable",
    "Duplex",
    "connect_duplex",
    "duplex",
    "duplex_pair",
    "cat",
]
