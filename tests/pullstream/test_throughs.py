"""Tests for pull-stream transformers."""

from __future__ import annotations

import pytest

from repro.pullstream import (
    batch,
    collect,
    count,
    filter_,
    filter_not,
    flatten,
    map_,
    non_unique,
    pull,
    take,
    tap,
    through,
    unbatch,
    unique,
    values,
)
from repro.pullstream.pull import compose


class TestMap:
    def test_map_transforms_values(self):
        assert pull(count(4), map_(lambda v: v * 10), collect()).result() == [10, 20, 30, 40]

    def test_map_error_propagates(self):
        def explode(value):
            if value == 3:
                raise RuntimeError("bad value")
            return value

        result = pull(count(5), map_(explode), collect())
        assert isinstance(result.end, RuntimeError)

    def test_map_composes(self):
        result = pull(
            count(5), map_(lambda v: v + 1), map_(lambda v: v * 2), collect()
        ).result()
        assert result == [4, 6, 8, 10, 12]

    def test_map_answers_once_when_downstream_raises(self):
        """Regression: ``cb(None, fn(value))`` sat inside the ``try``, so an
        exception raised by the downstream continuation aborted upstream and
        answered ``cb`` a second time."""
        aborts, answers = [], []

        def source(end, cb):
            if end is not None:
                aborts.append(end)
                cb(end, None)
            else:
                cb(None, 1)

        def downstream(end, value):
            answers.append((end, value))
            raise RuntimeError("downstream broke")

        with pytest.raises(RuntimeError, match="downstream broke"):
            map_(lambda v: v * 10)(source)(None, downstream)
        assert answers == [(None, 10)]
        assert aborts == []


class TestFilter:
    def test_filter_keeps_matching(self):
        assert pull(count(10), filter_(lambda v: v % 2 == 0), collect()).result() == [2, 4, 6, 8, 10]

    def test_filter_not(self):
        assert pull(count(6), filter_not(lambda v: v % 2 == 0), collect()).result() == [1, 3, 5]

    def test_filter_everything(self):
        assert pull(count(5), filter_(lambda v: False), collect()).result() == []

    def test_filter_predicate_error(self):
        def bad(value):
            raise KeyError("nope")

        result = pull(count(3), filter_(bad), collect())
        assert isinstance(result.end, KeyError)


class TestTake:
    def test_take_n(self):
        assert pull(count(100), take(3), collect()).result() == [1, 2, 3]

    def test_take_more_than_available(self):
        assert pull(count(2), take(10), collect()).result() == [1, 2]

    def test_take_zero(self):
        assert pull(count(5), take(0), collect()).result() == []

    def test_take_while_predicate(self):
        assert pull(count(10), take(lambda v: v < 4), collect()).result() == [1, 2, 3]

    def test_take_while_last(self):
        assert pull(count(10), take(lambda v: v < 4, last=True), collect()).result() == [1, 2, 3, 4]

    def test_take_aborts_upstream(self):
        """take() must abort the upstream so lazy sources stop producing."""
        produced = []

        def generator():
            index = 0
            while True:
                produced.append(index)
                yield index
                index += 1

        from repro.pullstream import from_iterable

        pull(from_iterable(generator()), take(5), collect())
        assert len(produced) <= 6


class TestUniqueAndFlatten:
    def test_unique(self):
        assert pull(values([1, 2, 2, 3, 1, 4]), unique(), collect()).result() == [1, 2, 3, 4]

    def test_unique_with_key(self):
        items = [{"k": 1}, {"k": 1}, {"k": 2}]
        result = pull(values(items), unique(key=lambda d: d["k"]), collect()).result()
        assert result == [{"k": 1}, {"k": 2}]

    def test_non_unique(self):
        assert pull(values([1, 2, 2, 3, 1]), non_unique(), collect()).result() == [2, 1]

    def test_flatten(self):
        assert pull(values([[1, 2], [3], [], [4, 5]]), flatten(), collect()).result() == [1, 2, 3, 4, 5]

    def test_flatten_non_iterable_passthrough(self):
        assert pull(values([1, [2, 3]]), flatten(), collect()).result() == [1, 2, 3]


class TestBatch:
    def test_batch_groups_values(self):
        assert pull(count(7), batch(3), collect()).result() == [[1, 2, 3], [4, 5, 6], [7]]

    def test_batch_exact_multiple(self):
        assert pull(count(4), batch(2), collect()).result() == [[1, 2], [3, 4]]

    def test_batch_roundtrip_with_unbatch(self):
        assert pull(count(10), batch(4), unbatch(), collect()).result() == list(range(1, 11))

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            batch(0)

    def test_batch_of_one(self):
        assert pull(count(3), batch(1), collect()).result() == [[1], [2], [3]]


class TestThroughAndTap:
    def test_through_observes_without_modifying(self):
        seen, ends = [], []
        result = pull(
            count(3), through(on_value=seen.append, on_end=ends.append), collect()
        ).result()
        assert result == [1, 2, 3]
        assert seen == [1, 2, 3]
        assert len(ends) == 1

    def test_tap(self):
        seen = []
        assert pull(count(2), tap(seen.append), collect()).result() == [1, 2]
        assert seen == [1, 2]


class TestCompose:
    def test_compose_throughs(self):
        double_evens = compose(filter_(lambda v: v % 2 == 0), map_(lambda v: v * 2))
        assert pull(count(6), double_evens, collect()).result() == [4, 8, 12]

    def test_pull_without_source_returns_through(self):
        partial = pull(map_(lambda v: v + 1), filter_(lambda v: v > 2))
        assert pull(count(4), partial, collect()).result() == [3, 4, 5]


class TestBatchingFrames:
    """Wire framing: batching / unbatching / map_batches."""

    def test_full_frames_on_synchronous_source(self):
        from repro.net.serialization import Batch
        from repro.pullstream import batching

        frames = pull(values(list(range(10))), batching(4), collect()).result()
        assert all(isinstance(frame, Batch) for frame in frames)
        assert [list(frame) for frame in frames] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_roundtrip_through_unbatching(self):
        from repro.pullstream import batching, unbatching

        result = pull(
            values(list(range(23))), batching(5), unbatching(), collect()
        ).result()
        assert result == list(range(23))

    def test_list_valued_elements_survive_roundtrip(self):
        """Unlike unbatch(), unbatching() must not flatten list *values*."""
        from repro.pullstream import batching, unbatching

        items = [[1, 2], [3], [], [4, 5, 6]]
        result = pull(values(items), batching(3), unbatching(), collect()).result()
        assert result == items

    def test_partial_frame_flushes_when_upstream_blocks(self):
        """A value must never be trapped in the framer while upstream parks.

        With a push-based upstream every ask goes asynchronous, so each value
        is flushed as a one-element frame the moment the next ask parks —
        framing degrades gracefully instead of deadlocking (the StreamLender
        waitOnOthers scenario).
        """
        from repro.pullstream import batching, pushable

        upstream = pushable()
        sink = pull(upstream, batching(4), collect())
        upstream.push(1)
        upstream.push(2)
        upstream.push(3)
        upstream.end()
        assert [list(frame) for frame in sink.result()] == [[1], [2], [3]]

    def test_invalid_size(self):
        from repro.pullstream import batching

        with pytest.raises(ValueError):
            batching(0)

    def test_error_propagates(self):
        from repro.pullstream import batching, unbatching
        from repro.pullstream import error as error_source

        result = pull(error_source(RuntimeError("boom")), batching(2), collect())
        assert isinstance(result.end, RuntimeError)

    def test_map_batches_applies_per_element(self):
        from repro.net.serialization import Batch
        from repro.pullstream import batching, map_batches, unbatching

        result = pull(
            values(list(range(9))),
            batching(4),
            map_batches(lambda v, cb: cb(None, v * 2)),
            unbatching(),
            collect(),
        ).result()
        assert result == [v * 2 for v in range(9)]

    def test_map_batches_passes_bare_values(self):
        from repro.pullstream import map_batches

        result = pull(
            values([1, 2, 3]), map_batches(lambda v, cb: cb(None, v + 1)), collect()
        ).result()
        assert result == [2, 3, 4]

    def test_map_batches_does_not_swallow_a_downstream_exception(self):
        from repro.pullstream import drain, map_batches

        def explode(_value):
            raise RuntimeError("downstream broke")

        with pytest.raises(RuntimeError, match="downstream broke"):
            pull(
                values([1, 2]),
                map_batches(lambda v, cb: cb(None, v)),
                drain(op=explode),
            )

    def test_map_batches_error_fails_stream(self):
        from repro.pullstream import batching, map_batches

        def failing(value, cb):
            if value == 2:
                cb(RuntimeError("bad"), None)
            else:
                cb(None, value)

        result = pull(values([1, 2, 3]), batching(2), map_batches(failing), collect())
        assert isinstance(result.end, RuntimeError)
