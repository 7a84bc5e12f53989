"""Property-based tests of the pull-stream core's one trampoline (hypothesis).

Every drain loop (``drain``/``collect``/``find``, the channel-style
``eager_pump``) and ``map_batches``' element loop run on
:class:`repro.pullstream.loop.Loop`.  A *scripted* source answers each ask
either synchronously or later (deferred to a queue the test releases), at
random, and the tests check on every script that

* each value is delivered exactly once and in order;
* termination is reported exactly once;
* an exception raised by a continuation propagates out of the loop;
* 10 000 synchronous values complete under ``sys.setrecursionlimit(200)``.
"""

from __future__ import annotations

import sys
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.serialization import Batch
from repro.pullstream import (
    DONE,
    batching,
    collect,
    drain,
    eager_pump,
    find,
    map_batches,
    merge_unordered,
    pull,
    split,
    unbatching,
    values,
)
from repro.pullstream.loop import Loop

SCRIPTS = st.lists(st.booleans(), min_size=1, max_size=20)  # True: answer now


class ScriptedSource:
    """Answer ask ``i`` synchronously or later, as ``script[i % len]`` says."""

    def __init__(self, n, script):
        self.n = n
        self.script = script
        self.asks = 0
        self.next = 0
        self.deferred = deque()
        self.aborts = []

    def __call__(self, end, cb):
        if end is not None:
            self.aborts.append(end)
            cb(DONE, None)
            return
        assert not self.deferred, "asked again while an ask is pending"
        if self.next < self.n:
            answer = (None, self.next)
            self.next += 1
        else:
            answer = (DONE, None)
        sync = self.script[self.asks % len(self.script)]
        self.asks += 1
        if sync:
            cb(*answer)
        else:
            self.deferred.append((cb, answer))

    def release_all(self):
        while self.deferred:
            cb, answer = self.deferred.popleft()
            cb(*answer)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), script=SCRIPTS, kind=st.sampled_from(["drain", "collect"]))
def test_drain_and_collect_deliver_in_order_once(n, script, kind):
    source = ScriptedSource(n, script)
    seen, ends = [], []
    if kind == "drain":
        result = pull(source, drain(seen.append, ends.append))
    else:
        result = pull(source, collect(lambda end, items: ends.append(end)))
    source.release_all()
    assert result.done and ends == [DONE]
    assert (seen if kind == "drain" else result.value) == list(range(n))
    assert source.aborts == []


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), target=st.integers(0, 80), script=SCRIPTS)
def test_find_stops_at_the_first_hit(n, target, script):
    source = ScriptedSource(n, script)
    seen, ends = [], []

    def hit(value):
        seen.append(value)
        return value == target

    result = pull(source, find(hit, lambda end, value: ends.append((end, value))))
    source.release_all()
    found = target < n
    assert seen == list(range(target + 1 if found else n))
    assert ends == [(DONE, target if found else None)]
    assert result.aborted is found
    assert source.aborts == ([DONE] if found else [])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 60), close_after=st.integers(1, 70), script=SCRIPTS)
def test_eager_sink_closed_mid_stream(n, close_after, script):
    """A channel sink whose endpoint closes while it handles a value:
    nothing is delivered after the close, and the upstream is aborted with
    the close reason exactly once instead of being asked again."""
    source = ScriptedSource(n, script)
    seen, ends, closed = [], [], []
    reason = ConnectionError("endpoint closed")

    def on_value(value):
        seen.append(value)
        if len(seen) == close_after:
            closed.append(reason)

    eager_pump(source, on_value, ends.append, lambda: closed[0] if closed else None)
    source.release_all()
    assert seen == list(range(min(n, close_after)))
    if close_after <= n:
        assert source.aborts == [reason] and ends == []
    else:
        assert source.aborts == [] and ends == [DONE]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 60), close_at=st.integers(0, 70), script=SCRIPTS)
def test_eager_sink_drops_an_answer_in_flight_at_close(n, close_at, script):
    """The endpoint closes while an answer is deferred: a late value is
    dropped and the upstream aborted with the close reason; a late
    termination is still reported."""
    source = ScriptedSource(n, script + [False])  # at least one deferred ask
    seen, ends, closed = [], [], []
    reason = ConnectionError("endpoint closed")
    eager_pump(source, seen.append, ends.append, lambda: closed[0] if closed else None)
    released = 0
    late = None
    while source.deferred:
        cb, answer = source.deferred.popleft()
        if released == close_at:
            closed.append(reason)
            late = answer
        released += 1
        cb(*answer)
    if late is None:  # never closed
        assert seen == list(range(n)) and ends == [DONE] and source.aborts == []
    elif late[0] is None:  # a value was in flight: dropped, then the abort
        assert seen == list(range(late[1]))
        assert source.aborts == [reason] and ends == []
    else:  # the termination was in flight
        assert seen == list(range(n)) and ends == [DONE] and source.aborts == []


@settings(max_examples=40, deadline=None)
@given(size=st.integers(0, 200), script=SCRIPTS)
def test_map_batches_elements_in_order(size, script):
    """Each element of a frame answers synchronously or later, at random."""
    pending = deque()
    answers = iter(script * (size // len(script) + 1))

    def fn(value, cb):
        if next(answers):
            cb(None, value * 2)
        else:
            pending.append(lambda: cb(None, value * 2))

    result = pull(values([Batch(list(range(size)))]), map_batches(fn), collect())
    while pending:
        pending.popleft()()
    assert [list(frame.values) for frame in result.result()] == [
        [value * 2 for value in range(size)]
    ]


def test_map_batches_on_a_10000_element_synchronous_frame():
    frame = Batch(list(range(10_000)))
    with recursion_limit(200):
        result = pull(
            values([frame]), map_batches(lambda v, cb: cb(None, v + 1)), collect()
        )
    assert list(result.result()[0].values) == list(range(1, 10_001))


class recursion_limit:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.saved = sys.getrecursionlimit()
        sys.setrecursionlimit(self.limit)

    def __exit__(self, *_exc):
        sys.setrecursionlimit(self.saved)


@pytest.mark.parametrize(
    "pipeline",
    [
        lambda src: pull(src, collect()),
        lambda src: pull(src, drain()),
        lambda src: pull(src, find(lambda v: v == -1)),
        lambda src: pull(src, batching(7), unbatching(), collect()),
        lambda src: pull(merge_unordered(split(src, 3)), collect()),
    ],
    ids=["collect", "drain", "find", "batching", "split-merge"],
)
def test_10000_synchronous_values_under_a_low_recursion_limit(pipeline):
    with recursion_limit(200):
        result = pipeline(values(range(10_000)))
    assert result.done and not isinstance(result.end, BaseException)


def test_10000_synchronous_values_through_an_eager_sink():
    seen, ends = [], []
    with recursion_limit(200):
        eager_pump(values(range(10_000)), seen.append, ends.append)
    assert seen == list(range(10_000)) and ends == [DONE]


class Boom(Exception):
    pass


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), fail_at=st.integers(0, 39), script=SCRIPTS)
def test_a_raising_continuation_propagates(n, fail_at, script):
    """The sink's own callback raises: the exception leaves whichever call
    delivered the value (the ``pull`` or a later release), never swallowed,
    and no value is delivered twice."""
    fail_at = fail_at % n
    source = ScriptedSource(n, script)
    seen = []

    def op(value):
        seen.append(value)
        if value == fail_at:
            raise Boom(value)

    raised = []
    try:
        pull(source, drain(op))
        source.release_all()
    except Boom as exc:
        raised.append(exc.args[0])
    assert raised == [fail_at]
    assert seen == list(range(fail_at + 1))


@pytest.mark.parametrize("framed", [False, True])
def test_a_raising_continuation_escapes_map_batches(framed):
    """``fn`` answers synchronously and the downstream continuation raises:
    that is not ``fn``'s failure, so it must not be turned into an error
    answer (which the answer-once guard would then drop)."""
    item = Batch([1, 2, 3]) if framed else 1

    def explode(_value):
        raise Boom()

    with pytest.raises(Boom):
        pull(values([item]), map_batches(lambda v, cb: cb(None, v)), drain(explode))


def test_loop_iterates_reentrant_runs_and_recovers_from_a_raising_step():
    calls = []

    def step():
        calls.append(len(calls))
        if len(calls) < 5:
            loop.run()  # a synchronous re-entry: the next turn, not a nested call
        if len(calls) == 3:
            raise Boom()

    loop = Loop(step)
    with pytest.raises(Boom):
        loop.run()
    assert calls == [0, 1, 2] and not loop.running
    loop.run()  # not wedged: a later run starts afresh
    assert calls == [0, 1, 2, 3, 4]
