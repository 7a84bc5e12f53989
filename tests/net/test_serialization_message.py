"""Tests for serialization helpers and batch frames."""

from __future__ import annotations

import itertools
import json
import time

import pytest
from hypothesis import given, strategies as st

from repro.net.serialization import (
    SizedPayload,
    decode_binary,
    encode_binary,
    encode_json,
    estimate_size,
)


class TestJsonEncoding:
    def test_roundtrip(self):
        value = {"a": 1, "b": [1, 2, 3], "c": "text"}
        assert json.loads(encode_json(value)) == value

    def test_compact_output(self):
        assert " " not in encode_json({"a": 1, "b": 2})

    def test_non_serialisable_fallback(self):
        class Weird:
            pass

        encoded = encode_json({"x": Weird()})
        assert "Weird" in encoded


class TestBinaryEncoding:
    def test_roundtrip(self):
        payload = bytes(range(256)) * 10
        assert decode_binary(encode_binary(payload)) == payload

    def test_compresses_repetitive_data(self):
        payload = b"a" * 100_000
        assert len(encode_binary(payload)) < len(payload) / 10

    @given(st.binary(max_size=4096))
    def test_roundtrip_property(self, payload):
        assert decode_binary(encode_binary(payload)) == payload


@pytest.fixture
def ticking_clock(monkeypatch):
    """Every ``time.time()`` call lands in a later second than the last."""
    seconds = itertools.count(1_700_000_000, 1000)
    monkeypatch.setattr(time, "time", lambda: float(next(seconds)))


class TestDeterministicEncoding:
    """gzip stamps ``time.time()`` into its header unless told otherwise; a
    re-lent value recomputed a second later must still equal the first
    answer."""

    def test_equal_bytes_encode_equal_across_clock_ticks(self, ticking_clock):
        payload = bytes(range(256)) * 10
        first = encode_binary(payload)
        assert time.time() != time.time()  # the patched clock does tick
        assert encode_binary(payload) == first

    def test_render_frame_is_a_pure_function_of_its_spec(self, ticking_clock):
        from repro.pool.workloads import render_frame

        spec = {"angle": 30.0, "frame": 1, "width": 8, "height": 6}
        assert render_frame(spec) == render_frame(spec)


class TestEstimateSize:
    def test_sized_payload(self):
        assert estimate_size(SizedPayload("x", 168_000)) == 168_000

    def test_dict_with_size_bytes(self):
        assert estimate_size({"size_bytes": 5000, "other": "data"}) == 5000

    def test_bytes(self):
        assert estimate_size(b"12345") == 5

    def test_json_fallback(self):
        assert estimate_size({"a": 1}) == len('{"a":1}')

    def test_object_with_attribute(self):
        class Blob:
            size_bytes = 777

        assert estimate_size(Blob()) == 777

    def test_sized_payload_equality(self):
        assert SizedPayload("a", 10) == SizedPayload("a", 10)
        assert SizedPayload("a", 10) != SizedPayload("a", 11)


class TestBatchFrames:
    """Batch frames: explicit marker type and wire-size accounting."""

    def test_equality_is_by_contents(self):
        from repro.net.serialization import Batch

        assert Batch([1, {"a": 2}]) == Batch([1, {"a": 2}])
        assert Batch([1]) != Batch([2])

    def test_size_includes_overhead(self):
        from repro.net.serialization import (
            BATCH_FRAME_OVERHEAD,
            Batch,
            estimate_size,
        )

        batch = Batch([{"size_bytes": 100}, {"size_bytes": 200}])
        assert estimate_size(batch) == BATCH_FRAME_OVERHEAD + 300

    def test_batch_is_not_a_plain_list(self):
        from repro.net.serialization import Batch

        batch = Batch([1, 2])
        assert batch != [1, 2]
        assert list(batch) == [1, 2]
        assert len(batch) == 2
