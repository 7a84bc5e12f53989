"""The runtime thread asserts, armed on product code.

``@loop_only`` checks its caller against the threads that turn a loop.  A
master that drives a process pool and serves an in-process volunteer has
two such threads in one process: its own, turning the scheduler's loop, and
the volunteer session's, turning the volunteer's.  Both must pass, while a
thread that turns no loop still raises.  The test needs a process started
with ``PANDO_THREAD_ASSERTS=1`` (see conftest.py).
"""

from __future__ import annotations

import threading

import pytest

from repro.core import DistributedMap
from repro.errors import ThreadOwnershipError
from repro.pullstream import drain, pull, values
from repro.worker.ws_volunteer import run_volunteer

SLEEP_ECHO = "repro.pool.workloads:sleep_echo"


def call_in_thread(fn):
    """Run *fn* on a thread that turns no loop; return what it raised."""
    box = {}

    def runner():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - captured for the assert
            box["exc"] = exc

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join(10)
    return box.get("exc")


@pytest.mark.thread_asserts(True)
def test_a_pool_and_an_in_process_volunteer_pass_the_armed_asserts():
    items = [{"sleep": 0.02, "i": index} for index in range(40)]
    results, foreign = [], []
    dmap = DistributedMap(batch_size=2)

    def on_result(value):
        if not results:
            # on the master's loop thread, mid-drive: a thread that turns no
            # loop must still be refused
            foreign.append(call_in_thread(dmap.scheduler.dispatch_round))
        results.append(value)

    sink = pull(values(items), dmap, drain(on_result))
    dmap.add_process_pool(SLEEP_ECHO, processes=1)
    gateway = dmap.serve_volunteers(fn_ref=SLEEP_ECHO)
    box = {}
    volunteer = threading.Thread(
        target=lambda: box.setdefault("report", run_volunteer(gateway.url)),
        daemon=True,
    )
    volunteer.start()
    try:
        dmap.drive(sink, timeout=60)
    finally:
        dmap.close()
        volunteer.join(10)
    assert results == items
    report = box["report"]
    assert report.error is None and report.graceful
    assert report.values_processed > 0  # the volunteer's loop did work
    assert isinstance(foreign[0], ThreadOwnershipError)
