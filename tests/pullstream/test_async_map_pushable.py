"""Tests for async_map, pushable, duplex and cat modules."""

from __future__ import annotations

import pytest

from repro.pullstream import (
    Pushable,
    async_map,
    cat,
    collect,
    count,
    drain,
    duplex_pair,
    error,
    pull,
    pushable,
    take,
    values,
)


class TestAsyncMap:
    def test_synchronous_callback(self):
        doubler = async_map(lambda v, cb: cb(None, v * 2))
        assert pull(count(4), doubler, collect()).result() == [2, 4, 6, 8]

    def test_deferred_callback(self):
        """The callback may fire later (e.g. from a scheduler)."""
        pending = []
        deferred = async_map(lambda v, cb: pending.append((v, cb)))
        result = pull(count(3), deferred, collect())
        assert not result.done
        while pending:
            value, cb = pending.pop(0)
            cb(None, value + 100)
        assert result.result() == [101, 102, 103]

    def test_error_from_function(self):
        def failing(value, cb):
            if value == 2:
                cb(RuntimeError("fail"), None)
            else:
                cb(None, value)

        result = pull(count(4), failing and async_map(failing), collect())
        assert isinstance(result.end, RuntimeError)

    def test_exception_from_function_is_caught(self):
        def raising(value, cb):
            raise ValueError("oops")

        result = pull(count(2), async_map(raising), collect())
        assert isinstance(result.end, ValueError)

    def test_double_callback_is_ignored(self):
        def double_cb(value, cb):
            cb(None, value)
            cb(None, value * 1000)  # must be ignored

        assert pull(count(3), async_map(double_cb), collect()).result() == [1, 2, 3]

    def test_downstream_exception_is_not_swallowed(self):
        """Regression: the ``try`` around ``fn(value, node_cb)`` also caught
        what the downstream continuation raised inside a synchronous
        callback, then dropped it because the callback was already
        answered — the stream stalled with no error."""

        def explode(_value):
            raise RuntimeError("downstream broke")

        with pytest.raises(RuntimeError, match="downstream broke"):
            pull(count(3), async_map(lambda v, cb: cb(None, v)), drain(op=explode))

    def test_ordering_preserved(self):
        assert pull(values(list(range(50))), async_map(lambda v, cb: cb(None, v)), collect()).result() == list(range(50))


class TestPushable:
    def test_push_then_read(self):
        source = pushable()
        source.push(1)
        source.push(2)
        source.end()
        assert pull(source, collect()).result() == [1, 2]

    def test_read_then_push(self):
        source = pushable()
        result = pull(source, collect())
        assert not result.done
        source.push("a")
        source.push("b")
        source.end()
        assert result.result() == ["a", "b"]

    def test_error_termination(self):
        source = pushable()
        result = pull(source, collect())
        source.push(1)
        source.error(RuntimeError("channel died"))
        assert isinstance(result.end, RuntimeError)
        assert result.value == [1]

    def test_push_after_end_is_dropped(self):
        source = pushable()
        source.end()
        source.push(99)
        assert pull(source, collect()).result() == []

    def test_downstream_abort_clears_buffer(self):
        source = pushable()
        source.push(1)
        source.push(2)
        result = pull(source, take(1), collect())
        assert result.result() == [1]
        assert source.ended

    def test_on_close_callback(self):
        closes = []
        source = pushable(on_close=closes.append)
        source.push(1)
        source.end()
        pull(source, drain())
        assert len(closes) == 1

    def test_buffered_property(self):
        source = Pushable()
        source.push(1)
        source.push(2)
        assert source.buffered == 2


class TestDuplexPair:
    def test_messages_cross_over(self):
        a, b = duplex_pair()
        received_at_b = pull(b.source, collect())
        a.sink(values([1, 2, 3]))
        assert received_at_b.result() == [1, 2, 3]

    def test_both_directions(self):
        a, b = duplex_pair()
        at_b = pull(b.source, collect())
        at_a = pull(a.source, collect())
        a.sink(values(["to-b"]))
        b.sink(values(["to-a"]))
        assert at_b.result() == ["to-b"]
        assert at_a.result() == ["to-a"]

    def test_error_propagates_across(self):
        a, b = duplex_pair()
        at_b = pull(b.source, collect())
        a.sink(error(RuntimeError("upstream broke")))
        assert isinstance(at_b.end, RuntimeError)


class TestCat:
    def test_concatenates_sources(self):
        assert pull(cat([count(2), values(["a"]), count(3)]), collect()).result() == [1, 2, "a", 1, 2, 3]

    def test_empty_list(self):
        assert pull(cat([]), collect()).result() == []

    def test_error_in_middle_aborts_rest(self):
        boom = RuntimeError("boom")
        result = pull(cat([count(2), error(boom), count(3)]), collect())
        assert result.end is boom
        assert result.value == [1, 2]

    def test_downstream_abort(self):
        assert pull(cat([count(10), count(10)]), take(3), collect()).result() == [1, 2, 3]
