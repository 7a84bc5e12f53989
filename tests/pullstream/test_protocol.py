"""Tests for the pull-stream protocol primitives and checker."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.pullstream import DONE, check_protocol, count, is_error, values
from repro.pullstream.protocol import EndMarker


class TestEndMarker:
    def test_done_is_singleton(self):
        assert EndMarker() is DONE

    def test_done_is_truthy(self):
        assert bool(DONE) is True

    def test_repr(self):
        assert repr(DONE) == "DONE"


class TestPredicates:
    def test_is_error(self):
        assert is_error(ValueError("x"))
        assert not is_error(DONE)
        assert not is_error(None)


class TestProtocolChecker:
    def test_passes_through_values(self):
        checked = check_protocol(count(3))
        seen = []

        def step(expected_end, expected_value):
            checked(None, lambda end, value: seen.append((end, value)))

        for _ in range(4):
            step(None, None)
        assert seen[0] == (None, 1)
        assert seen[1] == (None, 2)
        assert seen[2] == (None, 3)
        assert seen[3][0] is DONE

    def test_records_trace(self):
        checked = check_protocol(values([1]))
        checked(None, lambda end, value: None)
        assert ("request", None) in checked.trace
        assert any(event[0] == "answer" for event in checked.trace)

    def test_detects_concurrent_asks(self):
        def never_answers(end, cb):
            pass  # a broken source that never calls back

        checked = check_protocol(never_answers)
        checked(None, lambda end, value: None)
        with pytest.raises(ProtocolError):
            checked(None, lambda end, value: None)

    def test_detects_double_answer(self):
        def answers_twice(end, cb):
            cb(None, 1)
            cb(None, 2)

        checked = check_protocol(answers_twice)
        with pytest.raises(ProtocolError):
            checked(None, lambda end, value: None)

    def test_detects_value_after_termination(self):
        state = {"calls": 0}

        def bad_source(end, cb):
            state["calls"] += 1
            if state["calls"] == 1:
                cb(DONE, None)
            else:
                cb(None, 42)  # violates: value after done

        checked = check_protocol(bad_source)
        checked(None, lambda end, value: None)
        with pytest.raises(ProtocolError):
            checked(None, lambda end, value: None)

    def test_abort_allowed_while_waiting(self):
        """An abort may be issued even while an ask is pending."""
        pending = {}

        def slow_source(end, cb):
            if end is not None:
                cb(DONE, None)
                return
            pending["cb"] = cb  # answer later

        checked = check_protocol(slow_source)
        checked(None, lambda end, value: None)
        # abort does not raise even though the ask is still pending
        checked(DONE, lambda end, value: None)
