"""Regression test: a run's deadline is inclusive (timeout=0 fires).

The deadline check used a strict ``>``; with ``timeout=0`` (deadline "now")
and a coarse monotonic clock the first rounds could pass the check and the
run would only time out after the clock visibly advanced — in the worst
case spinning a full safety-net poll first.  The check is now ``>=``: a
deadline that has been *reached* fires on the round that reaches it.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import PandoError
from repro.pullstream import collect, pull
from repro.pullstream.pushable import Pushable
from repro.sched import EventLoopScheduler


class TestPumpDeadline:
    def make_pending_sink(self, scheduler):
        # A port-fed pipeline whose producer never pushes: the sink can
        # never complete, so only the timeout can end the run.
        port = scheduler.register_pushable()
        return pull(port.pushable, collect())

    def test_timeout_zero_fires_immediately(self):
        with EventLoopScheduler() as scheduler:
            sink = self.make_pending_sink(scheduler)
            started = time.monotonic()
            with pytest.raises(PandoError, match="timed out"):
                scheduler.run(sink, timeout=0)
            # Fires on the first round — well inside one safety-net poll.
            assert time.monotonic() - started < 1.0

    def test_positive_timeout_still_honoured(self):
        with EventLoopScheduler() as scheduler:
            sink = self.make_pending_sink(scheduler)
            started = time.monotonic()
            with pytest.raises(PandoError, match="timed out"):
                scheduler.run(sink, timeout=0.1)
            elapsed = time.monotonic() - started
            assert 0.05 <= elapsed < 2.0

    def test_completed_sink_beats_a_zero_timeout(self):
        # timeout=0 must not fail a run whose sinks are already complete.
        with EventLoopScheduler() as scheduler:
            port = scheduler.register_pushable()
            sink = pull(port.pushable, collect())
            port.pushable.push(1)
            port.pushable.end()
            while port.dispatch():
                pass
            assert sink.done
            scheduler.run(sink, timeout=0)  # returns without raising
            assert sink.result() == [1]
