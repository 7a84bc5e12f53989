"""Sink-completion wake-ups: a run must not lean on the safety net.

A run whose only remaining progress happens *outside* the dispatch rounds —
a pipeline fed and finished from a producer thread — once terminated only
when the poll-interval safety net expired.  A run registers a
``SinkResult.on_done`` callback that raises the loop's stop flag and wakes
it (thread-safely) the instant the sink completes.

The producer threads here push into a ``Pushable`` no scheduler owns, on
purpose: routing them through a ``PushablePort`` would complete the sink in
a dispatch round, and the ``on_done`` wake-up would go untested.  Each
declares itself a crossing (``mark_loop_thread``) so the suite also passes
with ``PANDO_THREAD_ASSERTS=1``.
"""

from __future__ import annotations

import threading
import time

from repro.analysis.annotations import mark_loop_thread, unmark_loop_thread
from repro.pullstream import collect, pull
from repro.pullstream.pushable import Pushable
from repro.sched import EventLoopScheduler

#: A safety net long enough that any accidental reliance on it is obvious
#: in the elapsed wall-clock (the tests assert completion in a fraction).
LONG_POLL = 5.0


def test_sink_completed_off_loop_wakes_the_pump_immediately():
    """The sink finishes from a producer thread while the pump is parked
    on its wake event; on_done must cut the 5-second safety net short."""
    sched = EventLoopScheduler(poll_interval=LONG_POLL)
    # An open port keeps the run live (the pump otherwise declares a stall
    # with no ready/live source); it is never pushed to.
    port = sched.register_pushable()
    source = Pushable()
    sink = pull(source, collect())

    def finish_later():
        time.sleep(0.15)
        # Completing the stream off-loop: the sink's on_done callback (not
        # a dispatch round, not the safety net) must wake the pump.
        owner = mark_loop_thread()
        try:
            source.push("fed-from-outside")
            source.end()
        finally:
            unmark_loop_thread(owner)

    thread = threading.Thread(target=finish_later)
    started = time.monotonic()
    thread.start()
    try:
        sched.run(sink, timeout=30)
    finally:
        thread.join()
        port.end()
        sched.close()
    elapsed = time.monotonic() - started
    assert sink.done
    assert sink.result() == ["fed-from-outside"]
    # Well under the poll interval: the wake came from on_done.
    assert elapsed < LONG_POLL / 2, elapsed
    assert sched.wakeups >= 1


def test_already_done_sink_returns_without_waiting():
    sched = EventLoopScheduler(poll_interval=LONG_POLL)
    sched.register_pushable()  # keeps the scheduler live, never used
    source = Pushable()
    sink = pull(source, collect())
    source.push(1)
    source.end()
    assert sink.done
    started = time.monotonic()
    try:
        sched.run(sink, timeout=30)
    finally:
        sched.close()
    assert time.monotonic() - started < 1.0
    assert sink.result() == [1]


def test_on_done_registration_does_not_linger_across_runs():
    """A second run of the same scheduler registers fresh callbacks; the
    completed first sink's callback list was cleared on completion, so
    nothing accumulates and the second run still terminates promptly."""
    sched = EventLoopScheduler(poll_interval=LONG_POLL)
    port = sched.register_pushable()

    def run_once(tag):
        source = Pushable()
        sink = pull(source, collect())

        def finish_later():
            time.sleep(0.1)
            owner = mark_loop_thread()
            try:
                source.push(tag)
                source.end()
            finally:
                unmark_loop_thread(owner)

        thread = threading.Thread(target=finish_later)
        started = time.monotonic()
        thread.start()
        try:
            sched.run(sink, timeout=30)
        finally:
            thread.join()
        assert sink.result() == [tag]
        assert time.monotonic() - started < LONG_POLL / 2
        assert not sink._callbacks  # cleared on completion

    run_once("first")
    run_once("second")
    port.end()
    sched.close()
