"""End-to-end observability plane: metrics, frame tracing, scrape endpoint.

See :mod:`repro.obs.registry` (thread-safe counters/gauges/histograms with
Prometheus text exposition), :mod:`repro.obs.trace` (the :class:`TraceLog`
ring buffer and the per-frame tracer) and :mod:`repro.obs.http_endpoint`
(the stdlib HTTP scrape server behind ``DistributedMap.serve_metrics``).
"""

import importlib
from typing import Any

from .registry import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import Observability, TraceEvent, TraceLog

# Every map imports this package for the tracer; only a process that serves
# metrics needs the endpoint (and ``http.server`` behind it), so the name
# resolves on first use (PEP 562).
def __getattr__(name: str) -> Any:
    if name != "ThreadedMetricsEndpoint":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.http_endpoint"), name)
    globals()[name] = value
    return value

__all__ = [
    "Counter",
    "DEFAULT_BYTES_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "ThreadedMetricsEndpoint",
    "TraceEvent",
    "TraceLog",
]
