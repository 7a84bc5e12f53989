"""Tests for the round-robin splitter and the completion-order joiner."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.pullstream import (
    DONE,
    collect,
    merge_unordered,
    pull,
    pushable,
    split,
    values,
)


def ask(source):
    """Issue one ask and return the (end, value) answer (must be sync)."""
    box = []
    source(None, lambda end, value: box.append((end, value)))
    assert box, "expected a synchronous answer"
    return box[0]


def abort(source, end=DONE):
    box = []
    source(end, lambda e, v: box.append((e, v)))
    return box[0]


def counted(items):
    """A values source that records every value it hands out."""
    read = []
    inner = values(items)

    def source(end, cb):
        def answer(answer_end, value):
            if answer_end is None:
                read.append(value)
            cb(answer_end, value)

        inner(end, answer)

    return source, read


class TestSplit:
    def test_round_robin_assignment(self):
        branches = split(values(list(range(9))), 3)
        assert [ask(branches[0])[1] for _ in range(3)] == [0, 3, 6]
        assert [ask(branches[1])[1] for _ in range(3)] == [1, 4, 7]
        assert [ask(branches[2])[1] for _ in range(3)] == [2, 5, 8]
        for branch in branches:
            end, _ = ask(branch)
            assert end is DONE

    def test_lazy_until_a_branch_asks(self):
        reads = []

        def counting(end, cb):
            reads.append(end)
            values([1, 2, 3, 4])(end, cb)

        branches = split(counting, 2)
        assert reads == []
        assert ask(branches[0])[1] == 1
        assert len(reads) == 1

    def test_values_for_idle_branches_are_buffered(self):
        source, read = counted(list(range(6)))
        branches = split(source, 2)
        # Branch 0 drains its half first; the odd values buffer for branch 1.
        assert [ask(branches[0])[1] for _ in range(3)] == [0, 2, 4]
        assert read == [0, 1, 2, 3, 4]
        assert [ask(branches[1])[1] for _ in range(3)] == [1, 3, 5]

    def test_termination_reaches_every_branch(self):
        source, read = counted([0, 1])
        branches = split(source, 2)
        assert ask(branches[0]) == (None, 0)
        assert ask(branches[1]) == (None, 1)
        end0, _ = ask(branches[0])
        end1, _ = ask(branches[1])
        assert end0 is DONE and end1 is DONE
        assert read == [0, 1]

    def test_error_termination_propagates(self):
        boom = RuntimeError("boom")

        def erroring(end, cb):
            cb(boom, None)

        branches = split(erroring, 2)
        assert ask(branches[0])[0] is boom
        assert ask(branches[1])[0] is boom

    def test_parked_ask_is_answered_on_upstream_end(self):
        source = pushable()
        branches = split(source, 2)
        answers = []
        branches[1](None, lambda end, value: answers.append((end, value)))
        assert answers == []  # parked: value 0 belongs to branch 0
        source.push(10)
        source.end()
        assert answers == [(DONE, None)]
        # the skipped value 0 is still buffered for branch 0
        assert ask(branches[0]) == (None, 10)

    def test_branch_abort_aborts_upstream_and_siblings(self):
        upstream_aborts = []
        inner = values(list(range(10)))

        def observed(end, cb):
            if end is not None:
                upstream_aborts.append(end)
            inner(end, cb)

        branches = split(observed, 2)
        assert ask(branches[0]) == (None, 0)
        end, _ = abort(branches[0])
        assert end is DONE
        assert upstream_aborts == [DONE]
        assert ask(branches[1])[0] is DONE

    def test_branch_error_abort_reaches_siblings(self):
        boom = RuntimeError("branch failed")
        branches = split(values([1, 2, 3, 4]), 2)
        assert ask(branches[0]) == (None, 1)
        abort(branches[0], boom)
        assert ask(branches[1])[0] is boom

    def test_concurrent_branch_ask_is_a_protocol_error(self):
        source = pushable()
        branches = split(source, 2)
        branches[1](None, lambda end, value: None)  # parks (value 0 is branch 0's)
        end, _ = ask(branches[1])
        assert isinstance(end, ProtocolError)

    def test_requires_at_least_one_branch(self):
        with pytest.raises(ValueError):
            split(values([1]), 0)


class TestSplitMaxBuffer:
    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            split(values([1]), 2, max_buffer=0)

    def test_stalled_branch_backlog_is_bounded(self):
        """Regression for the unbounded-buffering follow-on: while branch 0
        drains the whole input, the stalled branch 1 never buffers more than
        ``max_buffer`` values — the pump parks instead."""
        reads = []
        inner = values(list(range(20)))

        def counting(end, cb):
            if end is None:
                reads.append(len(reads))
            inner(end, cb)

        branches = split(counting, 2, max_buffer=2)
        got = []
        answers = []
        # Branch 0 asks for its full half; once branch 1 is 2 values behind
        # the pump parks, so branch 0's later asks park too (back-pressure).
        for _ in range(10):
            branches[0](None, lambda end, value: (answers.append(end),
                                                  got.append(value)))
        # Values 0, 2, 4 reached branch 0 before the pump parked on value 5
        # (branch 1's third buffered value); the remaining asks are parked.
        assert got[:3] == [0, 2, 4]
        assert len([e for e in answers if e is None]) == 3
        assert len(reads) == 5  # 0,1,2,3,4 read; 5 would overflow branch 1
        # so branch 1 holds exactly its cap: 1 and 3
        assert [ask(branches[1])[1] for _ in range(2)] == [1, 3]

    def test_slow_branch_resuming_releases_the_parked_pump(self):
        source, read = counted(list(range(12)))
        branches = split(source, 2, max_buffer=1)
        fast_answers = []
        slow_answers = []

        def fast_cb(end, value):
            fast_answers.append((end, value))

        def slow_cb(end, value):
            slow_answers.append((end, value))

        def delivered(answers):
            return [value for end, value in answers if end is None]

        for _ in range(3):
            branches[0](None, fast_cb)
        # Two values delivered; the third ask parked (reading value 3 would
        # overflow branch 1's one-slot buffer).
        assert delivered(fast_answers) == [0, 2]
        assert read == [0, 1, 2]  # value 1 waits in branch 1's one slot
        # The slow branch drains its buffer: the parked pump resumes and the
        # outstanding fast ask is answered.
        branches[1](None, slow_cb)
        assert delivered(slow_answers) == [1]
        assert delivered(fast_answers) == [0, 2, 4]
        # Alternating drains complete the whole input under the cap.
        for _ in range(8):
            branches[1](None, slow_cb)
            branches[0](None, fast_cb)
            delivered_total = len(delivered(fast_answers) + delivered(slow_answers))
            assert len(read) - delivered_total <= 1
        assert delivered(fast_answers) == [0, 2, 4, 6, 8, 10]
        assert delivered(slow_answers) == [1, 3, 5, 7, 9, 11]

    def test_waiting_branch_never_counts_against_its_cap(self):
        """A branch that is asking receives its value directly, so the cap
        only parks the pump for values that would actually buffer."""
        branches = split(values(list(range(6))), 2, max_buffer=1)
        assert [ask(branches[index % 2])[1] for index in range(6)] == list(range(6))

    def test_abort_clears_bounded_buffers(self):
        source, read = counted(list(range(10)))
        branches = split(source, 2, max_buffer=2)
        assert [ask(branches[0])[1] for _ in range(3)] == [0, 2, 4]
        assert read == [0, 1, 2, 3, 4]  # 1 and 3 buffered for branch 1
        abort(branches[0])
        # the buffered values are dropped: branch 1 gets the termination
        assert ask(branches[1])[0] is DONE

    def test_merge_unordered_respects_the_cap(self):
        """Under an unordered merge the fast branch can run ahead, but the
        splitter still bounds the slow branch's backlog at the cap."""
        source, read = counted(list(range(16)))
        branches = split(source, 2, max_buffer=3)
        handed = [[], []]

        def tracked(index):
            def branch(end, cb):
                def answer(answer_end, value):
                    if answer_end is None:
                        handed[index].append(value)
                    cb(answer_end, value)

                branches[index](end, answer)

            return branch

        depths = []
        merged = merge_unordered([tracked(0), tracked(1)])

        def observing(end, cb):
            merged(end, cb)
            for index in (0, 1):
                owed = [value for value in read if value % 2 == index]
                depths.append(len(owed) - len(handed[index]))

        assert sorted(pull(observing, collect()).result()) == list(range(16))
        assert max(depths) <= 3


class TestMergeUnordered:
    def test_identity_on_synchronous_branches(self):
        branches = split(values(list(range(10))), 2)
        merged = merge_unordered(branches)
        result = pull(merged, collect()).result()
        assert sorted(result) == list(range(10))

    def test_delivers_in_completion_order(self):
        """The first ready source answers first, regardless of turn order."""
        slow_cbs = []

        def slow(end, cb):
            if end is not None:
                cb(DONE, None)
                return
            slow_cbs.append(cb)

        fast_values = values(["f1", "f2"])
        merged = merge_unordered([slow, fast_values])
        assert ask(merged) == (None, "f1")
        assert ask(merged) == (None, "f2")
        # Now only the slow source remains; its parked answer arrives late.
        got = []
        merged(None, lambda end, value: got.append((end, value)))
        assert got == []
        assert len(slow_cbs) >= 1
        slow_cbs[0](None, "s1")
        assert got == [(None, "s1")]

    def test_done_from_one_source_does_not_end_the_merge(self):
        merged = merge_unordered([values([1]), values([2, 3])])
        seen = [ask(merged)[1] for _ in range(3)]
        assert sorted(seen) == [1, 2, 3]
        assert ask(merged)[0] is DONE

    def test_extra_answers_buffer_for_later_asks(self):
        """The fan-out can leave asks in flight on several sources; a late
        answer with no downstream ask waiting buffers and satisfies the next
        ask without re-asking."""
        parked = []

        def slow(end, cb):
            if end is not None:
                cb(DONE, None)
                return
            parked.append(cb)

        merged = merge_unordered([slow, values(["f"])])
        got = []
        merged(None, lambda end, value: got.append(value))
        # slow parked its ask; the fast source answered the downstream ask.
        assert got == ["f"]
        assert len(parked) == 1
        # The slow source answers late: the value buffers and the next
        # downstream ask is satisfied without another source ask.
        parked[0](None, "s")
        assert ask(merged) == (None, "s")
        assert len(parked) == 1

    def test_error_from_one_source_aborts_the_others(self):
        boom = RuntimeError("shard died")
        aborted = []

        def failing(end, cb):
            if end is not None:
                cb(end, None)
                return
            cb(boom, None)

        def healthy(end, cb):
            if end is not None:
                aborted.append(end)
                cb(DONE, None)
                return
            # parks: never answers a value ask

        merged = merge_unordered([healthy, failing])
        end, _ = ask(merged)
        assert end is boom
        assert aborted == [boom]
        assert ask(merged)[0] is boom  # terminal thereafter

    def test_downstream_abort_reaches_every_source(self):
        aborts = []

        def make(name):
            def source(end, cb):
                if end is not None:
                    aborts.append(name)
                    cb(DONE, None)
                    return
                cb(None, name)

            return source

        merged = merge_unordered([make("a"), make("b")])
        assert ask(merged)[1] in ("a", "b")
        assert abort(merged)[0] is DONE
        assert sorted(aborts) == ["a", "b"]

    def test_concurrent_ask_is_a_protocol_error(self):
        def never(end, cb):
            if end is not None:
                cb(DONE, None)

        merged = merge_unordered([never])
        merged(None, lambda end, value: None)
        end, _ = ask(merged)
        assert isinstance(end, ProtocolError)

    def test_requires_at_least_one_source(self):
        with pytest.raises(ValueError):
            merge_unordered([])
