"""Tests for pull-stream transformers."""

from __future__ import annotations

import pytest

from repro.pullstream import (
    collect,
    count,
    map_,
    pull,
    take,
    through,
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


class TestThrough:
    def test_through_observes_without_modifying(self):
        seen, ends = [], []
        result = pull(
            count(3), through(on_value=seen.append, on_end=ends.append), collect()
        ).result()
        assert result == [1, 2, 3]
        assert seen == [1, 2, 3]
        assert len(ends) == 1


class TestCompose:
    def test_compose_throughs(self):
        double_the_first_three = compose(take(3), map_(lambda v: v * 2))
        assert pull(count(6), double_the_first_three, collect()).result() == [2, 4, 6]

    def test_pull_without_source_returns_through(self):
        partial = pull(map_(lambda v: v + 1), take(3))
        assert pull(count(4), partial, collect()).result() == [2, 3, 4]


class TestBatchingFrames:
    """Wire framing: batching / unbatching."""

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
        """unbatching() must not flatten list *values*."""
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
        from repro.pullstream import batching
        from repro.pullstream import error as error_source

        result = pull(error_source(RuntimeError("boom")), batching(2), collect())
        assert isinstance(result.end, RuntimeError)
