"""Structured trace events and per-frame tracing.

:class:`TraceLog` is a bounded ring buffer of :class:`TraceEvent` records —
the structured form of the diagnostics that used to live only in exception
text (pump stalls and timeouts, heartbeat suspicions, frames a gateway
refused, sub-stream failures, abort fan-out) plus one ``"frame"`` event per
completed traced frame.
Tests and the bench harness assert against it; the scrape endpoint exports
per-kind counts through the registry.

:class:`Observability` bundles one master's registry, trace log and frame
tracer.  A traced frame is a plain dict — picklable, so it rides the frame
control metadata across all three transports (pool pipe, shm control
records, websocket wire records)::

    {"frame_id": 7, "job": "job-1", "transport": "shm",
     "t_submit": <perf_counter>, "serialize_s": ..., "exec_s": ...}

``frame_id`` is monotonic per master and ``job`` is the parent job/request
ID, so a result can be attributed end-to-end no matter which worker
computed it.  The child side adds ``exec_s`` (time inside the user
function, a duration — child and master clocks are never compared);
delivery computes ``overhead = (t_deliver - t_submit) - exec_s``, the
paper's §5.5 decomposition of frame cost into compute and machinery.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..analysis.annotations import any_thread
from .registry import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
)

__all__ = ["TraceEvent", "TraceLog", "Observability", "DEFAULT_TRACE_CAPACITY"]

DEFAULT_TRACE_CAPACITY = 2048

_JOB_IDS = itertools.count(1)


class TraceEvent:
    """One structured diagnostic record."""

    __slots__ = ("kind", "ts", "fields")

    def __init__(self, kind: str, ts: float, fields: Dict[str, Any]) -> None:
        self.kind = kind
        self.ts = ts
        self.fields = fields

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "ts": self.ts, **self.fields}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<TraceEvent {self.kind} {self.fields!r}>"


class TraceLog:
    """Bounded, thread-safe ring buffer of trace events.

    Emission is cheap (one lock, one deque append) and the buffer is
    bounded, so leaving tracing on in production costs a fixed amount of
    memory.  When a *registry* is attached, every emission also bumps the
    ``pando_trace_events_total{kind=...}`` counter — the scrapeable summary
    of a buffer whose old entries rotate out.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: rotation-proof per-kind emission totals (the ring drops old
        #: events; balance checks need the lifetime counts)
        self._totals: Dict[str, int] = {}
        self._counter = (
            registry.counter(
                "pando_trace_events_total",
                "Trace events emitted, by kind.",
                ("kind",),
            )
            if registry is not None
            else None
        )

    @any_thread
    def emit(self, kind: str, **fields: Any) -> TraceEvent:
        event = TraceEvent(kind, time.monotonic(), fields)
        with self._lock:
            self._events.append(event)
            self._totals[kind] = self._totals.get(kind, 0) + 1
        if self._counter is not None:
            self._counter.inc(kind=kind)
        return event

    @any_thread
    def count(self, kind: str) -> int:
        """Lifetime number of *kind* events emitted (rotation-proof)."""
        with self._lock:
            return self._totals.get(kind, 0)

    @any_thread
    def counts(self) -> Dict[str, int]:
        """Lifetime per-kind emission totals (rotation-proof)."""
        with self._lock:
            return dict(self._totals)

    @any_thread
    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Snapshot of the buffered events, optionally filtered by kind."""
        with self._lock:
            events = list(self._events)
        if kind is None:
            return events
        return [event for event in events if event.kind == kind]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<TraceLog {len(self)}/{self.capacity}>"


class Observability:
    """One master's observability plane: registry + trace log + frame tracer.

    ``enabled=False`` turns the per-frame hot path off — ``begin_frame``
    returns ``None`` and the transports skip all tracing work (the
    untraced arm of ``perf/``'s ``obs.tracing_overhead_share``).  The
    registry and trace log always exist, so callback registration and
    diagnostics cost nothing on the hot path either way.
    """

    def __init__(
        self,
        enabled: bool = True,
        job_id: Optional[str] = None,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    ) -> None:
        self.enabled = enabled
        self.job_id = job_id if job_id is not None else f"job-{next(_JOB_IDS)}"
        self.registry = MetricsRegistry()
        self.trace = TraceLog(trace_capacity, registry=self.registry)
        self._frame_ids = itertools.count(1)
        self._frame_lock = threading.Lock()
        self.frames = self.registry.counter(
            "pando_frames_total", "Traced frames completed, by transport.",
            ("transport",),
        )
        self.frame_overhead = self.registry.histogram(
            "pando_frame_overhead_seconds",
            "Per-frame machinery overhead: (deliver - submit) - compute.",
            ("transport",),
            buckets=DEFAULT_SECONDS_BUCKETS,
        )
        self.frame_compute = self.registry.histogram(
            "pando_frame_compute_seconds",
            "Per-frame time inside the user function (child-measured).",
            ("transport",),
            buckets=DEFAULT_SECONDS_BUCKETS,
        )
        self.frame_payload = self.registry.histogram(
            "pando_frame_payload_bytes",
            "Per-frame payload bytes on the wire, where the transport knows.",
            ("transport",),
            buckets=DEFAULT_BYTES_BUCKETS,
        )

    # ---------------------------------------------------------- frame trace
    @any_thread
    def begin_frame(self, transport: str, values: int = 1) -> Optional[Dict[str, Any]]:
        """Start tracing one frame; returns the control-metadata dict.

        ``None`` when tracing is disabled — the transports ship the frame
        exactly as before (zero overhead, and the child side answers with
        the untraced result shape).
        """
        if not self.enabled:
            return None
        with self._frame_lock:
            frame_id = next(self._frame_ids)
        return {
            "frame_id": frame_id,
            "job": self.job_id,
            "transport": transport,
            "values": values,
            "t_submit": time.perf_counter(),
        }

    @any_thread
    def end_serialize(self, trace: Dict[str, Any]) -> None:
        """Record the end of the serialize phase (pack + submit)."""
        trace["serialize_s"] = time.perf_counter() - trace["t_submit"]

    @any_thread
    def observe_payload(self, transport: str, nbytes: int) -> None:
        if self.enabled and nbytes > 0:
            self.frame_payload.observe(nbytes, transport=transport)

    @any_thread
    def observe_frame(self, trace: Dict[str, Any]) -> None:
        """Complete one traced frame at delivery time.

        *trace* is the dict that travelled with the frame, back from the
        child with ``exec_s`` added.  Overhead is clamped at zero: the
        child executes concurrently with other frames, so a pipelined frame
        can spend longer inside the user function than it spent end-to-end
        exclusive.
        """
        transport = str(trace.get("transport", "?"))
        t_deliver = time.perf_counter()
        exec_s = float(trace.get("exec_s", 0.0))
        elapsed = t_deliver - float(trace.get("t_submit", t_deliver))
        overhead = max(0.0, elapsed - exec_s)
        self.frames.inc(transport=transport)
        self.frame_overhead.observe(overhead, transport=transport)
        self.frame_compute.observe(exec_s, transport=transport)
        self.trace.emit(
            "frame",
            frame_id=trace.get("frame_id"),
            job=trace.get("job"),
            transport=transport,
            values=trace.get("values"),
            serialize_s=trace.get("serialize_s"),
            compute_s=exec_s,
            overhead_s=overhead,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "enabled" if self.enabled else "disabled"
        return f"<Observability {self.job_id} {state}>"
