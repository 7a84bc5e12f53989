"""End-to-end observability plane: metrics, frame tracing, scrape endpoint.

See :mod:`repro.obs.registry` (thread-safe counters and histograms, and
scrape-time callbacks, with Prometheus text exposition),
:mod:`repro.obs.trace` (the :class:`TraceLog` ring buffer and the per-frame
tracer) and :mod:`repro.obs.http_endpoint` (the stdlib HTTP scrape server
behind ``DistributedMap.serve_metrics``).
"""

from typing import Any

from .. import _lazy
from .registry import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from .trace import Observability, TraceEvent, TraceLog

# Every map imports this package for the tracer; only a process that serves
# metrics needs the endpoint (and ``http.server`` behind it), so the name
# resolves on first use (PEP 562).
_LAZY = {"ThreadedMetricsEndpoint": "http_endpoint"}


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _LAZY, name)


__all__ = [
    "Counter",
    "DEFAULT_BYTES_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "ThreadedMetricsEndpoint",
    "TraceEvent",
    "TraceLog",
]
