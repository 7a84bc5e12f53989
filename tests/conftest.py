"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.network import LAN_PROFILE, NetworkModel
from repro.sim.scheduler import Scheduler


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run tests marked @pytest.mark.slow (the full scenario matrix)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def scheduler() -> Scheduler:
    """A fresh virtual-time scheduler."""
    return Scheduler(VirtualClock())


@pytest.fixture
def network() -> NetworkModel:
    """A LAN network model with a fixed seed (deterministic jitter)."""
    return NetworkModel(default_profile=LAN_PROFILE, seed=123)


class SubStreamDriver:
    """Manually drive a StreamLender sub-stream like a worker channel would.

    The driver borrows values from the sub-stream source, transforms them
    with *fn*, and (optionally) delivers the results back through the
    sub-stream sink.  Its behaviour is controllable so tests can model slow
    workers, crashing workers and workers that hold results back.
    """

    def __init__(self, substream, fn=lambda value: value * 10, auto_deliver=True,
                 crash_after=None, max_in_flight=None):
        from collections import deque

        from repro.pullstream import DONE, values

        self._DONE = DONE
        self._values = values
        self.substream = substream
        self.fn = fn
        self.auto_deliver = auto_deliver
        self.crash_after = crash_after
        #: like the Limiter window: stop borrowing while this many results
        #: are pending delivery (None = unbounded).  Defaults to 1 when
        #: auto_deliver is off so several drivers can share the work.
        if max_in_flight is not None:
            self.max_in_flight = max_in_flight
        elif auto_deliver or crash_after is not None:
            self.max_in_flight = None
        else:
            self.max_in_flight = 1
        self.borrowed = []
        self.pending_results = deque()
        self.finished = False
        self.crashed = False
        self._delivering = False
        self._result_cb = None
        self._paused = False

    def start(self):
        """Begin borrowing values; also wire the result side."""
        self.substream.sink(self._result_source)
        self._ask()
        return self

    # -- borrow side ---------------------------------------------------------
    def _ask(self):
        if self.crashed or self.finished:
            return
        if self.crash_after is not None and len(self.borrowed) >= self.crash_after:
            self.crash()
            return
        self.substream.source(None, self._answer)

    def _answer(self, end, value):
        if end is not None:
            self.finished = True
            self._flush_end()
            return
        self.borrowed.append(value)
        self.pending_results.append(self.fn(value))
        if self.auto_deliver:
            self._flush_results()
        if (
            self.max_in_flight is not None
            and len(self.pending_results) >= self.max_in_flight
        ):
            self._paused = True
            return
        self._ask()

    # -- result side ----------------------------------------------------------
    def _result_source(self, end, cb):
        if end is not None:
            cb(end, None)
            return
        if self.crashed:
            # A crashed worker never answers; simulate by erroring the stream.
            from repro.errors import WorkerCrashed

            cb(WorkerCrashed("driver"), None)
            return
        if self.pending_results:
            cb(None, self.pending_results.popleft())
            return
        if self.finished:
            cb(self._DONE, None)
            return
        self._result_cb = cb

    def _flush_results(self):
        if self._result_cb is not None and self.pending_results:
            cb, self._result_cb = self._result_cb, None
            cb(None, self.pending_results.popleft())

    def _flush_end(self):
        if self._result_cb is not None and not self.pending_results:
            cb, self._result_cb = self._result_cb, None
            cb(self._DONE, None)

    def deliver_all(self):
        """Deliver every pending result (when auto_deliver=False)."""
        while self.pending_results and self._result_cb is not None:
            self._flush_results()
        self._flush_results()
        if self._paused and not self.pending_results and not self.crashed:
            self._paused = False
            self._ask()
        if self.finished:
            self._flush_end()

    def crash(self):
        """Crash-stop the worker: stop borrowing, never deliver again."""
        self.crashed = True
        if self._result_cb is not None:
            from repro.errors import WorkerCrashed

            cb, self._result_cb = self._result_cb, None
            cb(WorkerCrashed("driver"), None)


@pytest.fixture
def substream_driver():
    """Factory fixture returning :class:`SubStreamDriver` instances."""

    def make(substream, **kwargs):
        return SubStreamDriver(substream, **kwargs)

    return make


@pytest.fixture
def assert_open_counts():
    """Check each lender's kept open-sub-stream count against the scan of
    its sub-streams that the count replaced (the reference stays here)."""

    def check(*lenders):
        for lender in lenders:
            scanned = sum(1 for sub in lender.substreams if not sub.closed)
            assert lender.open_substreams == scanned, (lender, scanned)

    return check


@pytest.fixture
def echo_fn():
    """A trivial Pando processing function echoing its input."""

    def echo(value, cb):
        cb(None, value)

    return echo


@pytest.fixture
def square_fn():
    """A Pando processing function returning the square of its input."""

    def square(value, cb):
        cb(None, value * value)

    return square
