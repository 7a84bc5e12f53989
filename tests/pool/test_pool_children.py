"""The pool's own worker processes: pipes, crashes, teardown.

``ProcessPoolWorker`` starts its children itself and talks to each over a
duplex pipe.  These tests pin what the standard library's executor used to
take care of (or hide): a master that never blocks on a write, a child loop
that nothing a task raises or returns can end, crash-stop on a killed child,
and children that exit by themselves once their master closed the pool —
or died.
"""

from __future__ import annotations

import ast
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.core.distributed_map import DistributedMap
from repro.core.limiter import Limiter
from repro.errors import FrameCancelled, PandoError, WorkerCrashed
from repro.net import wire
from repro.net.endpoint import close_inherited
from repro.net.serialization import Batch
from repro.pool import ProcessPoolWorker, process_pool
from repro.pullstream import collect, pull, values

ECHO = "repro.pool.workloads:echo"
SLEEPER = "repro.pool.workloads:sleep_echo"
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception refuses to be pickled")


def raises_unpicklable(value):
    raise Unpicklable(f"no way to ship {value!r}")


def returns_unpicklable(value):
    return lambda: value


def read_error(pool, inputs):
    """Feed *inputs* to a bare *pool* (no scheduler reads it); return what
    its source answers the first ask with."""
    pool.sink(values(inputs))
    answers = []
    pool.source(None, lambda end, value: answers.append(end))
    return answers[0]


def wait_for_no_children(seconds):
    deadline = time.monotonic() + seconds
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return multiprocessing.active_children() == []


class TestNoBlockingWrite:
    def test_large_frames_both_ways_do_not_deadlock(self):
        """4 MiB in, 4 MiB out, two frames in flight on one child: the
        child blocks writing a result while the master still has a frame to
        send it.  A master that waited on that write would never read."""
        inputs = [bytes([index]) * (4 << 20) for index in range(6)]
        dmap = DistributedMap(batch_size=1)
        sink = pull(values(inputs), dmap, collect())
        try:
            dmap.add_process_pool(ECHO, processes=1)
            dmap.drive(sink, timeout=30)
            assert sink.result() == inputs
        finally:
            dmap.close()

    def test_a_bare_pool_flushes_its_outbox_too(self):
        inputs = [bytes([index]) * (4 << 20) for index in range(4)]
        with ProcessPoolWorker(ECHO, processes=1) as pool:
            sink = pull(values(inputs), Limiter(pool, 3), collect())
            assert sink.result() == inputs


def stalls_mid_reply(sock, *_config):
    """A pool child that writes half of its first reply and then stops —
    descheduled, SIGSTOPped, swapped out — until the master hangs up."""
    close_inherited()
    record, values_ = wire.decode(wire.read_pipe_message(sock), trusted=True)
    reply = {"kind": wire.RESULT, "seq": record["seq"], "ok": True}
    message = b"".join(wire.pipe_message(wire.encode(reply, values_)))
    sock.sendall(message[: len(message) // 2])
    while sock.recv(1 << 16):  # prefetched frames; then EOF once the pool closes
        pass


class TestASlowChildHoldsUpNobody:
    def test_a_child_stalled_mid_reply_does_not_wedge_the_master(self, monkeypatch):
        """The master used to wait on the loop thread for the *whole* reply
        once its first byte was readable: every other pool's replies, every
        gateway heartbeat and the pump's own timeout waited with it."""
        monkeypatch.setattr(process_pool, "_child_main", stalls_mid_reply)
        dmap = DistributedMap(batch_size=1)
        sink = pull(values([b"v" * 4096, b"w" * 4096]), dmap, collect())
        try:
            dmap.add_process_pool(ECHO, processes=1)
            started = time.monotonic()
            with pytest.raises(PandoError, match="timed out"):
                dmap.drive(sink, timeout=1)
            assert 0.9 <= time.monotonic() - started < 3.0
        finally:
            dmap.close()
        assert wait_for_no_children(5)


class TestNothingATaskDoesEndsTheChild:
    def test_unpicklable_exception_travels_as_worker_crashed(self):
        with ProcessPoolWorker(raises_unpicklable, processes=1) as pool:
            error = read_error(pool, [7])
        assert isinstance(error, WorkerCrashed)
        assert "Unpicklable" in str(error) and "7" in str(error)
        assert wait_for_no_children(2)

    def test_unpicklable_result_errors_that_frames_stream(self):
        dmap = DistributedMap(batch_size=1)
        sink = pull(values([1, 2, 3]), dmap, collect())
        try:
            handle = dmap.add_process_pool(returns_unpicklable, processes=1)
            with pytest.raises(Exception, match="stalled"):
                dmap.drive(sink, timeout=30)  # the only worker failed
            assert handle.closed
            assert dmap.stats.substreams_failed == 1
            # The values are not lost: a healthy worker finishes the stream.
            dmap.add_local_worker(lambda value, cb: cb(None, value))
            assert sink.result() == [1, 2, 3]
        finally:
            dmap.close()
        assert wait_for_no_children(2)

    def test_unpicklable_input_fails_the_worker_not_the_master(self):
        with ProcessPoolWorker(ECHO, processes=1) as pool:
            error = read_error(pool, [lambda: None])
            assert pool.closed and pool.children == []
        assert isinstance(error, Exception) and "pickle" in str(error).lower()

    def test_frame_cancelled_crosses_the_pipe_with_its_counts(self):
        with ProcessPoolWorker(
            "repro.pool.workloads:square", processes=1, cancel_chunk=2
        ) as pool:
            pool.cancel_flag.set()
            error = read_error(pool, [Batch([1, 2, 3, 4, 5])])
        assert isinstance(error, FrameCancelled)
        assert (error.completed, error.total) == (0, 5)


def kill_a_child_when_busy(handle, timeout=30.0):
    """SIGKILL the first child of *handle*'s pool once frames are in flight."""
    fired = threading.Event()

    def watch():
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            children = handle.pool.children
            if handle.in_flight > 0 and children:
                os.kill(children[0].process.pid, signal.SIGKILL)
                fired.set()
                return
            time.sleep(0.005)

    threading.Thread(target=watch, daemon=True).start()
    return fired


class TestSigkillChurn:
    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_two_pools_survive_a_sigkilled_child(self, transport):
        if transport == "shm":
            fn_ref = "repro.pool.workloads:sleep_blob"
            inputs = [index.to_bytes(4, "big") + bytes(8192) for index in range(24)]
        else:
            fn_ref = SLEEPER
            inputs = [{"sleep": 0.02, "n": index} for index in range(40)]
        dmap = DistributedMap(batch_size=2)
        sink = pull(values(inputs), dmap, collect())
        try:
            victim = dmap.add_process_pool(
                fn_ref, processes=2, transport=transport, worker_id="victim"
            )
            dmap.add_process_pool(fn_ref, processes=1, transport=transport)
            killed = kill_a_child_when_busy(victim)
            dmap.drive(sink, timeout=90)
            # Exactly once, in order — re-lent values keep their slots.
            assert sink.result() == inputs
        finally:
            dmap.close()
        assert killed.is_set(), "the victim was never caught with work in flight"
        assert victim.closed
        assert dmap.stats.values_relent > 0
        assert dmap.stats.substreams_failed == 1
        if transport == "shm":
            for handle in dmap.workers.values():
                ring = handle.pool.ring
                assert ring.slots_acquired == ring.slots_released
        # The victim's surviving child saw EOF and left by itself.
        assert wait_for_no_children(5)


class TestChildrenExitByThemselves:
    def test_close_stops_after_the_running_frame(self, tmp_path, monkeypatch):
        log = tmp_path / "completions.log"
        monkeypatch.setenv("PANDO_COMPLETION_LOG", str(log))
        pool = ProcessPoolWorker("repro.pool.workloads:log_completion", processes=1)
        pool.sink(values([{"sleep": 0.3, "i": 0}, {"i": 1}, {"i": 2}]))
        assert pool.pending == 3
        pool.close()
        assert wait_for_no_children(2)
        # The child ran the frame it had (or found) and stopped at the
        # closed pipe: the frames behind it were never computed.
        assert [line.split()[1] for line in log.read_text().splitlines()] == ["0"]
        assert pool.results_returned == 0

    def test_a_sigkilled_master_leaves_no_orphan(self, tmp_path):
        """Two pools, three children: every child inherited the master-side
        ends of the pipes made before it was forked and must have closed
        them, or some sibling would never see EOF."""
        helper = textwrap.dedent(
            """
            import sys, time
            from repro.pool import ProcessPoolWorker
            from repro.pullstream import values

            pools = [
                ProcessPoolWorker("repro.pool.workloads:sleep_echo", processes=2),
                ProcessPoolWorker("repro.pool.workloads:sleep_echo", processes=1),
            ]
            for pool in pools:
                pool.sink(values([{"sleep": 0.2}]))
            pids = [c.process.pid for pool in pools for c in pool.children]
            print(" ".join(map(str, pids)), flush=True)
            time.sleep(60)
            """
        )
        master = subprocess.Popen(
            [sys.executable, "-c", helper],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        pids = []
        try:
            pids = [int(pid) for pid in master.stdout.readline().split()]
            assert len(pids) == 3
            master.kill()
            master.wait(10)
            deadline = time.monotonic() + 5
            while any(map(still_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.02)
            survivors = [pid for pid in pids if still_running(pid)]
        finally:
            master.kill()
            master.wait(10)
            master.stdout.close()
            for pid in pids:
                if still_running(pid):
                    os.kill(pid, signal.SIGKILL)
        assert survivors == []


class TestChildrenHoldNoMasterSocket:
    def test_a_volunteer_socket_accepted_before_the_fork_closes_with_the_master(self):
        """A forked pool child inherits every socket the master has open and
        must close its copies first thing: a peer reads EOF only once every
        copy is closed, so a volunteer's connection — and the gateway's
        listener — would otherwise outlive the master closing them for as
        long as the child lives."""
        import asyncio
        import socket

        dmap = DistributedMap()
        gateway = dmap.serve_volunteers()
        peer = socket.create_connection((gateway.host, gateway.port), timeout=5)
        pool = ProcessPoolWorker(SLEEPER, processes=1)
        child = None
        try:
            deadline = time.monotonic() + 5
            while not gateway._connections and time.monotonic() < deadline:
                dmap.scheduler.run_coroutine(asyncio.sleep(0.01))
            assert gateway._connections, "the gateway never accepted the peer"
            pool.sink(values([{"sleep": 3.0}]))  # forks the child, which sleeps
            child = pool.children[0].process
            gateway.stop()
            peer.settimeout(1.5)
            assert peer.recv(1) == b""  # EOF, not a timeout
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection((gateway.host, gateway.port), timeout=1).close()
            assert child.is_alive()
        finally:
            peer.close()
            pool.close()
            dmap.close()
            if child is not None:
                child.kill()
                child.join(5)


def still_running(pid):
    """False once *pid* exited (a zombie awaiting its reaper counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_no_concurrent_futures_under_pool_or_sched():
    """The pool and the scheduler own their processes and their waiting:
    nothing under them may go back to the standard library's executors."""
    offenders = []
    for package in ("pool", "sched"):
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                    if node.module == "concurrent":
                        names = [f"concurrent.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(name.split(".")[:2] == ["concurrent", "futures"] for name in names):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
