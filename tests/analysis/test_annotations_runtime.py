"""Runtime behaviour of @loop_only / @any_thread and the thread registry."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.annotations import (
    any_thread,
    enable_thread_asserts,
    loop_only,
    loop_thread_idents,
    mark_loop_thread,
    ownership_of,
    thread_asserts_enabled,
    unmark_loop_thread,
)
from repro.errors import ThreadOwnershipError


@pytest.fixture
def asserts_enabled():
    """Enable the runtime checks and register this thread as the loop."""
    previously_enabled = thread_asserts_enabled()
    owner = mark_loop_thread()
    enable_thread_asserts(True)
    yield
    enable_thread_asserts(previously_enabled)
    unmark_loop_thread(owner)


def _call_in_thread(fn):
    """Run *fn* on a foreign thread; return the exception it raised, if any."""
    box = {}

    def runner():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - captured for assertion
            box["exc"] = exc

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join()
    return box.get("exc")


class TestLoopOnly:
    def test_foreign_thread_raises_when_asserts_enabled(self, asserts_enabled):
        @loop_only
        def dispatch():
            return "dispatched"

        exc = _call_in_thread(dispatch)
        assert isinstance(exc, ThreadOwnershipError)
        assert "dispatch" in str(exc)
        assert "PushablePort" in str(exc)  # the message names the fix

    def test_loop_thread_passes_when_asserts_enabled(self, asserts_enabled):
        @loop_only
        def dispatch():
            return "dispatched"

        assert dispatch() == "dispatched"

    def test_every_marked_thread_passes_and_the_rest_raise(self, asserts_enabled):
        # a master and an in-process volunteer each turn a loop of their own
        @loop_only
        def dispatch():
            return "dispatched"

        other_loop = threading.Event()
        done = threading.Event()
        box = {}

        def volunteer_thread():
            owner = mark_loop_thread()
            try:
                box["result"] = dispatch()
            finally:
                other_loop.set()
                done.wait(10)
                unmark_loop_thread(owner)

        thread = threading.Thread(target=volunteer_thread)
        thread.start()
        try:
            assert other_loop.wait(10)
            assert box["result"] == "dispatched"
            assert dispatch() == "dispatched"  # this thread is marked too
            assert isinstance(_call_in_thread(dispatch), ThreadOwnershipError)
        finally:
            done.set()
            thread.join(10)

    def test_no_check_when_asserts_disabled(self):
        owner = mark_loop_thread()
        previously_enabled = thread_asserts_enabled()
        enable_thread_asserts(False)
        try:

            @loop_only
            def dispatch():
                return "dispatched"

            assert _call_in_thread(dispatch) is None
        finally:
            enable_thread_asserts(previously_enabled)
            unmark_loop_thread(owner)

    def test_no_check_when_loop_unmarked(self, asserts_enabled):
        unmark_loop_thread()  # the fixture's mark
        try:
            assert loop_thread_idents() == frozenset()

            @loop_only
            def dispatch():
                return "dispatched"

            assert _call_in_thread(dispatch) is None
        finally:
            mark_loop_thread()

    def test_tag_survives_the_wrapper(self):
        @loop_only
        def dispatch():
            pass

        assert ownership_of(dispatch) == "loop_only"
        assert ownership_of(dispatch.__wrapped__) == "loop_only"


class TestAnyThread:
    def test_any_thread_is_a_pure_tag(self):
        def entry_point(x):
            return x * 2

        tagged = any_thread(entry_point)
        # identity preserved: executor.submit(entry_point) pickles the
        # original function by reference, so no wrapper is tolerable here
        assert tagged is entry_point
        assert ownership_of(tagged) == "any_thread"
        assert tagged(21) == 42

    def test_untagged_function_has_no_ownership(self):
        def plain():
            pass

        assert ownership_of(plain) is None


class TestLoopThreadRegistry:
    def test_marks_nest_per_thread(self):
        assert mark_loop_thread(111) == 111
        try:
            assert mark_loop_thread(222) == 222
            mark_loop_thread(222)
            assert {111, 222} <= loop_thread_idents()
            unmark_loop_thread(222)
            assert 222 in loop_thread_idents()  # one mark of two undone
            unmark_loop_thread(222)
            assert 222 not in loop_thread_idents()
            assert 111 in loop_thread_idents()
        finally:
            unmark_loop_thread(111)
        assert 111 not in loop_thread_idents()

    def test_a_loop_marks_its_creator_until_closed(self):
        from repro.sched.loop import Loop

        box = {}

        def creator():
            loop = Loop()
            box["open"] = loop_thread_idents()
            loop.close()
            loop.close()  # idempotent: one mark, undone once
            box["closed"] = loop_thread_idents()
            box["me"] = threading.get_ident()

        thread = threading.Thread(target=creator)
        thread.start()
        thread.join(10)
        assert box["me"] in box["open"]
        assert box["me"] not in box["closed"]

    def test_scheduler_run_marks_and_restores(self):
        # EventLoopScheduler.run registers its thread while it turns the
        # loop (which this thread also owns from its creation to close())
        # and leaves the other marks alone.
        from repro.pullstream import drain
        from repro.sched.event_loop import EventLoopScheduler

        me = threading.get_ident()
        seen = []
        mark_loop_thread(12345)
        try:
            scheduler = EventLoopScheduler()
            port = scheduler.register_pushable()
            sink = drain(lambda _value: seen.append(loop_thread_idents()))(port.pushable)
            port.push(1)
            port.end()
            scheduler.run(sink, timeout=5)
            assert seen == [frozenset({12345, me})]
            scheduler.close()
            assert loop_thread_idents() == frozenset({12345})
        finally:
            unmark_loop_thread(12345)
