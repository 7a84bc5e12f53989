"""Pando's core coordination abstractions.

This package contains the paper's primary contribution:

* :class:`~repro.core.lender.StreamLender` and
  :class:`~repro.core.lender.UnorderedStreamLender` (paper section 3);
* :class:`~repro.core.limiter.Limiter` (``pull-limit``), which bounds the
  number of in-flight values per worker and hides network latency;
* :func:`~repro.core.stubborn.stubborn` (``pull-stubborn``), the retry loop
  for failure-prone external data distribution (paper section 4.3);
* :class:`~repro.core.distributed_map.DistributedMap`, the composition the
  master process is built from (paper Figure 7);
* :class:`~repro.core.reorder.ReorderBuffer`, the ordering queue.
"""

from .reorder import ReorderBuffer
from .lender import LenderStats, StreamLender, SubStream, UnorderedStreamLender
from .limiter import Limiter, limit
from .stubborn import StubbornStats, stubborn
from .distributed_map import DistributedMap, WorkerHandle

__all__ = [
    "ReorderBuffer",
    "LenderStats",
    "StreamLender",
    "SubStream",
    "UnorderedStreamLender",
    "Limiter",
    "limit",
    "StubbornStats",
    "stubborn",
    "DistributedMap",
    "WorkerHandle",
]
