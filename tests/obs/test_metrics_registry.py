"""Unit tests for the metrics registry, trace log, and frame tracer."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import PandoError
from repro.obs import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
    Observability,
    TraceLog,
)

GOLDEN = pathlib.Path(__file__).parent / "golden_metrics.prom"


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        assert counter.value() == 0
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ("transport",))
        counter.inc(transport="pipe")
        counter.inc(5, transport="ws")
        assert counter.value(transport="pipe") == 1
        assert counter.value(transport="ws") == 5
        assert counter.value(transport="shm") == 0

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        with pytest.raises(PandoError):
            counter.inc(-1)

    def test_wrong_labels_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ("transport",))
        with pytest.raises(PandoError):
            counter.inc(shard=0)
        with pytest.raises(PandoError):
            counter.inc()


class TestHistogram:
    def test_observe_count_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "help", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(55.5)

    def test_buckets_are_sorted_and_required(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "help", buckets=(10.0, 1.0))
        assert hist.buckets == (1.0, 10.0)
        with pytest.raises(PandoError):
            registry.histogram("h2", "help", buckets=())

    def test_rendered_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "help", buckets=(1.0, 10.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            hist.observe(value)
        text = registry.render_prometheus()
        assert 'h_bucket{le="1"} 2' in text
        assert 'h_bucket{le="10"} 3' in text
        assert 'h_bucket{le="+Inf"} 4' in text
        assert "h_count 4" in text

    def test_default_bucket_tables(self):
        assert DEFAULT_SECONDS_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_BYTES_BUCKETS[0] == 256
        assert all(
            a < b for a, b in zip(DEFAULT_SECONDS_BUCKETS, DEFAULT_SECONDS_BUCKETS[1:])
        )


class TestRegistration:
    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dup", "help")
        with pytest.raises(PandoError):
            registry.histogram("dup", "help")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(PandoError):
            registry.counter("bad name", "help")

    def test_callbacks_share_a_family_per_label_set(self):
        registry = MetricsRegistry()
        registry.register_callback("cb_total", "help", lambda: 1, labels={"shard": 0})
        registry.register_callback("cb_total", "help", lambda: 2, labels={"shard": 1})
        text = registry.render_prometheus()
        assert 'cb_total{shard="0"} 1' in text
        assert 'cb_total{shard="1"} 2' in text

    def test_callback_label_names_must_match(self):
        registry = MetricsRegistry()
        registry.register_callback("cb_total", "help", lambda: 1, labels={"shard": 0})
        with pytest.raises(PandoError):
            registry.register_callback(
                "cb_total", "help", lambda: 2, labels={"worker": "w"}
            )

    def test_callback_cannot_shadow_an_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help")
        with pytest.raises(PandoError):
            registry.register_callback("c_total", "help", lambda: 1)

    def test_callback_kind_validated(self):
        registry = MetricsRegistry()
        with pytest.raises(PandoError):
            registry.register_callback("cb", "help", lambda: 1, kind="histogram")

    def test_dead_callback_renders_zero(self):
        registry = MetricsRegistry()

        def explode():
            raise RuntimeError("object torn down")

        registry.register_callback("dead_total", "help", explode)
        assert "dead_total 0" in registry.render_prometheus()


class TestExposition:
    def _golden_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        frames = registry.counter(
            "pando_frames_total",
            "Traced frames completed, by transport.",
            ("transport",),
        )
        frames.inc(transport="pipe")
        frames.inc(2, transport="ws")
        registry.register_callback(
            "pando_shm_slots_in_use",
            "Ring slots currently held by in-flight frames.",
            lambda: 3,
            labels={"worker": "worker-1"},
            kind="gauge",
        )
        overhead = registry.histogram(
            "pando_frame_overhead_seconds",
            "Per-frame machinery overhead.",
            ("transport",),
            buckets=(0.001, 0.01, 0.1),
        )
        overhead.observe(0.0005, transport="pipe")
        overhead.observe(0.05, transport="pipe")
        overhead.observe(5.0, transport="pipe")
        registry.register_callback(
            "pando_lender_values_read_total",
            "Values read from the map's input stream.",
            lambda: 42,
            labels={"shard": 0},
        )
        registry.register_callback(
            "pando_lender_values_read_total",
            "Values read from the map's input stream.",
            lambda: 7,
            labels={"shard": 1},
        )
        return registry

    def test_rendering_matches_the_golden_file(self):
        # The registry promises deterministic output (sorted families and
        # samples); the golden file pins the exact exposition format so a
        # rendering change cannot slip through unnoticed.
        assert self._golden_registry().render_prometheus() == GOLDEN.read_text()

    def test_rendering_is_deterministic(self):
        assert (
            self._golden_registry().render_prometheus()
            == self._golden_registry().render_prometheus()
        )

    def test_as_dict_snapshot_is_json_serialisable(self):
        snapshot = self._golden_registry().as_dict()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["pando_frames_total"]["type"] == "counter"
        hist = snapshot["pando_frame_overhead_seconds"]
        assert hist["type"] == "histogram"
        (sample,) = hist["samples"]
        assert sample["count"] == 3
        callback = snapshot["pando_lender_values_read_total"]
        assert {s["value"] for s in callback["samples"]} == {42.0, 7.0}


class TestTraceLog:
    def test_ring_buffer_rotates(self):
        log = TraceLog(capacity=3)
        for index in range(5):
            log.emit("frame", frame_id=index)
        assert len(log) == 3
        assert [event.fields["frame_id"] for event in log.events()] == [2, 3, 4]

    def test_kind_filter(self):
        log = TraceLog()
        log.emit("frame")
        log.emit("pump_stall")
        log.emit("frame")
        assert len(log.events("frame")) == 2
        assert len(log.events("pump_stall")) == 1
        assert len(log.events()) == 3

    def test_registry_counts_survive_rotation(self):
        registry = MetricsRegistry()
        log = TraceLog(capacity=2, registry=registry)
        for _ in range(5):
            log.emit("frame")
        assert len(log) == 2
        text = registry.render_prometheus()
        assert 'pando_trace_events_total{kind="frame"} 5' in text

    def test_event_as_dict(self):
        log = TraceLog()
        event = log.emit("shard_place", shard=1)
        assert event.as_dict()["kind"] == "shard_place"
        assert event.as_dict()["shard"] == 1


class TestObservability:
    def test_disabled_begin_frame_returns_none(self):
        obs = Observability(enabled=False)
        assert obs.begin_frame("pipe") is None

    def test_frame_ids_are_monotonic_and_job_tagged(self):
        obs = Observability(job_id="job-x")
        first = obs.begin_frame("pipe", values=2)
        second = obs.begin_frame("ws")
        assert first["job"] == second["job"] == "job-x"
        assert second["frame_id"] == first["frame_id"] + 1
        assert first["values"] == 2 and second["values"] == 1

    def test_observe_frame_decomposes_overhead(self):
        obs = Observability()
        trace = obs.begin_frame("shm")
        obs.end_serialize(trace)
        trace["exec_s"] = 0.0
        obs.observe_frame(trace)
        assert obs.frames.value(transport="shm") == 1
        assert obs.frame_overhead.count(transport="shm") == 1
        assert obs.frame_compute.count(transport="shm") == 1
        (event,) = obs.trace.events("frame")
        assert event.fields["transport"] == "shm"
        assert event.fields["overhead_s"] >= 0.0

    def test_overhead_clamped_for_pipelined_frames(self):
        # A frame that computed concurrently with others can report more
        # exec time than exclusive elapsed time; overhead clamps at zero.
        obs = Observability()
        trace = obs.begin_frame("pipe")
        trace["exec_s"] = 1e9
        obs.observe_frame(trace)
        (event,) = obs.trace.events("frame")
        assert event.fields["overhead_s"] == 0.0

    def test_auto_job_ids_are_unique(self):
        assert Observability().job_id != Observability().job_id
