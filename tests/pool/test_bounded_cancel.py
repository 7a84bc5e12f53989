"""Bounded-tail cancellation on a live process pool.

The simulated half of this invariant lives in
``tests/integration/test_scenario_matrix.py`` (the abort-skew cell).  Here
the same bound is measured against real pool children: after a
``find`` hit aborts the stream, the cancellation fan-out raises the shared
:class:`~repro.pool.cancel.CancelFlag`, and every frame already *running*
must stop at its next chunk boundary — so no child process completes more
than one value after the ``abort_fanout`` trace event.

The children prove it themselves: the ``log_completion`` workload appends
``"<pid> <id> <monotonic>"`` to ``$PANDO_COMPLETION_LOG`` after each value,
and ``CLOCK_MONOTONIC`` is system-wide on Linux, so those timestamps are
directly comparable with the master-side trace timestamp.
"""

from __future__ import annotations

import pytest

from repro.core.distributed_map import DistributedMap
from repro.pool import CancelFlag, flag_is_set
from repro.pullstream import find, pull, values

WORKLOAD = "repro.pool.workloads:log_completion"


class TestCancelFlag:
    def test_starts_clear_and_raises_idempotently(self):
        with CancelFlag() as flag:
            assert not flag.is_set()
            flag.set()
            flag.set()
            assert flag.is_set()

    def test_child_side_poll_sees_the_master_raise_it(self):
        with CancelFlag() as flag:
            assert not flag_is_set(flag.name)
            flag.set()
            assert flag_is_set(flag.name)

    def test_missing_flag_reads_as_raised(self):
        """A vanished master means nobody wants the results: fail-stop."""
        flag = CancelFlag()
        name = flag.name
        flag.close()  # unlinks; the name was never polled, so no cache
        assert flag_is_set(name)

    def test_closed_flag_reads_as_set_locally(self):
        flag = CancelFlag()
        flag.close()
        assert flag.is_set()
        flag.set()  # must not touch the released buffer


def test_frame_cancelled_survives_the_result_pipe():
    """Regression: the default reduction rebuilt ``FrameCancelled`` from its
    message alone, so the master could not unpickle a cancelled frame's
    result (which, under the executor this pool once wrapped, ended with
    worker processes that kept the interpreter from exiting)."""
    import pickle

    from repro.errors import FrameCancelled

    copy = pickle.loads(pickle.dumps(FrameCancelled(completed=3, total=8)))
    assert (copy.completed, copy.total) == (3, 8)
    assert "3/8" in str(copy)


def read_completion_log(path):
    """Parse ``log_completion`` records into ``(pid, id, monotonic)`` rows."""
    rows = []
    for line in path.read_text().splitlines():
        pid, ident, stamp = line.split()
        rows.append((int(pid), int(ident), float(stamp)))
    return rows


def test_running_frames_stop_within_one_value_of_the_abort(tmp_path, monkeypatch):
    check_bounded_tail(tmp_path, monkeypatch, ordered=True)


def test_an_unordered_search_stops_within_one_value_of_the_hit(tmp_path, monkeypatch):
    """The same bound on an unordered map, where a first-hit search runs:
    the hit goes down the stream as soon as it is answered."""
    check_bounded_tail(tmp_path, monkeypatch, ordered=False)


def check_bounded_tail(tmp_path, monkeypatch, ordered):
    log = tmp_path / "completions.log"
    monkeypatch.setenv("PANDO_COMPLETION_LOG", str(log))
    hit_index = 40
    inputs = [
        {"i": index, "sleep": 0.02, "hit": index == hit_index}
        for index in range(200)
    ]
    dmap = DistributedMap(batch_size=4, ordered=ordered)
    sink = pull(values(inputs), dmap, find(lambda value: value["hit"]))
    try:
        handle = dmap.add_process_pool(
            WORKLOAD,
            processes=2,
            cancel_chunk=1,
        )
        dmap.drive(sink, timeout=120)
    finally:
        dmap.close()

    assert sink.aborted and sink.result()["i"] == hit_index

    fanouts = dmap.obs.trace.events("abort_fanout")
    assert fanouts, "drive() must emit the abort fan-out trace"
    # The flag is raised inside cancel_pending() (or the abort's teardown),
    # *before* the trace event is stamped — so the event timestamp is a safe (late) abort reference.
    abort_at = fanouts[0].ts

    rows = read_completion_log(log)
    assert rows, "children never logged any completions"
    # The abort stopped the stream: the children logged strictly fewer
    # completions than the stream had inputs.
    assert len(rows) < len(inputs)
    assert handle.pool.closed

    late_by_pid = {}
    for pid, _ident, stamp in rows:
        if stamp > abort_at:
            late_by_pid[pid] = late_by_pid.get(pid, 0) + 1
    # Bounded tail: with cancel_chunk=1 each child checks the flag before
    # every value, so only the value already in flight may still complete.
    assert all(count <= 1 for count in late_by_pid.values()), (
        f"tail not bounded: {late_by_pid} completions after the abort "
        f"(abort_at={abort_at})"
    )
