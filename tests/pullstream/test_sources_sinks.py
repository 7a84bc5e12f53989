"""Tests for the standard pull-stream sources and sinks."""

from __future__ import annotations

import pytest

from repro.errors import PandoError
from repro.pullstream import (
    DONE,
    collect,
    count,
    drain,
    error,
    find,
    from_iterable,
    pull,
    take,
    values,
)


class TestSources:
    def test_count_produces_one_to_n(self):
        assert pull(count(5), collect()).result() == [1, 2, 3, 4, 5]

    def test_count_zero_is_empty(self):
        assert pull(count(0), collect()).result() == []

    def test_values(self):
        assert pull(values(["a", "b", "c"]), collect()).result() == ["a", "b", "c"]

    def test_values_empty(self):
        assert pull(values([]), collect()).result() == []

    def test_error_source_propagates(self):
        boom = ValueError("boom")
        result = pull(error(boom), collect())
        assert result.done
        assert result.end is boom
        with pytest.raises(ValueError):
            result.result()

    def test_from_iterable_is_lazy(self):
        pulled = []

        def generator():
            for index in range(100):
                pulled.append(index)
                yield index

        source = from_iterable(generator())
        result = pull(source, take(3), collect())
        assert result.result() == [0, 1, 2]
        # only the values actually requested were generated (plus none extra
        # beyond the take window)
        assert len(pulled) <= 4

    def test_from_iterable_generator_failure(self):
        def generator():
            yield 1
            raise RuntimeError("generator failed")

        result = pull(from_iterable(generator()), collect())
        assert isinstance(result.end, RuntimeError)


class TestSinks:
    def test_collect(self):
        assert pull(count(3), collect()).result() == [1, 2, 3]

    def test_drain_counts_values(self):
        assert pull(count(7), drain()).result() == 7

    def test_drain_with_op(self):
        seen = []
        pull(count(3), drain(op=seen.append))
        assert seen == [1, 2, 3]

    def test_drain_op_false_aborts(self):
        seen = []

        def op(value):
            seen.append(value)
            return value < 3  # abort after 3

        result = pull(count(100), drain(op=op))
        assert result.done
        assert seen[-1] == 3

    def test_find(self):
        assert pull(count(100), find(lambda v: v > 10)).result() == 11

    def test_find_no_match(self):
        assert pull(count(5), find(lambda v: v > 10)).result() is None

    def test_done_callbacks_fire(self):
        calls = []
        result = pull(count(2), collect(done=lambda end, items: calls.append(items)))
        assert calls == [[1, 2]]
        result.on_done(lambda r: calls.append("late"))
        assert calls[-1] == "late"

    def test_result_raises_before_done(self):
        from repro.pullstream.sinks import SinkResult

        pending = SinkResult()
        with pytest.raises(PandoError):
            pending.result()

    def test_large_synchronous_stream_no_recursion_error(self):
        # 100k synchronous values must not blow the recursion limit
        assert pull(count(100_000), drain()).result() == 100_000


class TestEagerPump:
    def test_late_async_answer_propagates_the_abort(self):
        """Regression: when an asynchronous answer arrived after
        ``closed_reason()`` became non-None, the pump dropped the value but
        returned without re-entering the loop — so the upstream never
        received the abort and stayed open forever."""
        from repro.pullstream import eager_pump

        aborts = []
        parked = []

        def upstream(end, cb):
            if end is not None:
                aborts.append(end)
                cb(DONE, None)
                return
            parked.append(cb)  # answer later, like a sim-clock channel

        closed = {"reason": None}
        seen = []
        eager_pump(
            upstream,
            on_value=seen.append,
            on_end=lambda end: seen.append(("end", end)),
            closed_reason=lambda: closed["reason"],
        )
        assert len(parked) == 1
        closed["reason"] = DONE           # endpoint closes mid-flight
        parked.pop()(None, "late value")  # the async answer lands afterwards
        assert seen == []                 # dropped, as before the fix
        assert aborts == [DONE]           # ...but the abort now propagates

    def test_late_answer_releases_a_lender_substream(self):
        """End-to-end shape of the same bug: a lender sub-stream drained by
        an eager pump whose endpoint dies while a borrow answer is in
        flight.  Without the abort, the sub-stream stayed open and its
        borrowed value was never re-lent."""
        from repro.core import StreamLender
        from repro.errors import WorkerCrashed
        from repro.pullstream import eager_pump, pushable

        source = pushable()
        lender = StreamLender()
        pull(source, lender, collect())
        box = []
        lender.lend_stream(lambda err, sub: box.append(sub))
        sub = box[0]
        closed = {"reason": None}
        eager_pump(
            sub.source,
            on_value=lambda value: None,
            on_end=lambda end: None,
            closed_reason=lambda: closed["reason"],
        )
        closed["reason"] = WorkerCrashed("w1")  # endpoint dies while parked
        source.push(1)  # the borrow answer arrives after the death
        assert sub.closed
        assert lender.outstanding == 0
        assert lender.relendable == 1  # the borrowed value is re-lendable
        assert lender.stats.substreams_failed == 1


class TestSinkAbortedFlag:
    """``SinkResult.aborted`` distinguishes a sink-initiated early abort
    (the trigger for cancellation fan-out) from a natural upstream end."""

    def test_find_hit_sets_aborted(self):
        result = pull(values([1, 2, 3, 4]), find(lambda v: v == 2))
        assert result.result() == 2
        assert result.aborted is True

    def test_find_without_match_is_not_aborted(self):
        result = pull(values([1, 3, 5]), find(lambda v: v == 2))
        assert result.result() is None
        assert result.aborted is False

    def test_drain_op_false_sets_aborted(self):
        result = pull(values([1, 2, 3]), drain(op=lambda v: v < 2))
        assert result.done
        assert result.aborted is True

    def test_collect_of_a_full_stream_is_not_aborted(self):
        result = pull(values([1, 2]), collect())
        assert result.result() == [1, 2]
        assert result.aborted is False

    def test_upstream_error_is_not_an_abort(self):
        from repro.pullstream import error

        result = pull(error(RuntimeError("boom")), drain())
        assert result.done
        assert result.aborted is False
