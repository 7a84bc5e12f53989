"""Process-level volunteer churn over real websockets.

External volunteer processes (``spawn_volunteer_process``) join a live
:class:`~repro.net.ws_transport.WsVolunteerGateway` over loopback and are
killed mid-frame — SIGKILL (socket dies, crash-stop detected on the wire)
and SIGSTOP (socket stays open, only the heartbeat monitor can tell).  In
every case the stream must complete exactly once: values borrowed by the
dead volunteer are re-lent to the survivors.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.core.distributed_map import DistributedMap
from repro.pullstream import collect, from_iterable, pull
from repro.worker.ws_volunteer import spawn_volunteer_process

SLEEP_ECHO = "repro.pool.workloads:sleep_echo"


def payloads(count, sleep=0.02):
    return [{"sleep": sleep, "n": i} for i in range(count)]


def kill_when_busy(dmap, worker_id, pid, sig=signal.SIGKILL, timeout=30.0):
    """Start a thread that signals *pid* once *worker_id* has work in flight.

    Returns an event that is set once the signal was delivered mid-frame.
    """
    fired = threading.Event()

    def watch():
        deadline = time.time() + timeout
        while time.time() < deadline:
            handle = dmap.workers.get(worker_id)
            if handle is not None and handle.in_flight > 0:
                os.kill(pid, sig)
                fired.set()
                return
            time.sleep(0.01)

    threading.Thread(target=watch, daemon=True).start()
    return fired


class TestSigkillChurn:
    def test_ordered_stream_survives_a_sigkill_mid_frame(self):
        inputs = payloads(40)
        dmap = DistributedMap(scheduler="asyncio", batch_size=2)
        sink = pull(from_iterable(inputs), dmap, collect())
        gateway = dmap.serve_volunteers(fn_ref=SLEEP_ECHO)
        victim = spawn_volunteer_process(gateway.url, name="victim")
        others = [
            spawn_volunteer_process(gateway.url, name=f"vol-{i}") for i in range(2)
        ]
        killed = kill_when_busy(dmap, "victim", victim.pid)
        try:
            dmap.drive(sink, timeout=90)
            result = sink.result()
        finally:
            dmap.close()
            victim.join(10)
            for proc in others:
                proc.join(10)
        assert killed.is_set(), "victim was never caught with work in flight"
        # Exactly once, in order — re-lent values keep their slots.
        assert [value["n"] for value in result] == list(range(40))
        assert gateway.volunteers_joined == 3
        assert gateway.volunteers_crashed == 1
        assert gateway.volunteers_left == 2
        assert gateway.suspicions == 0  # the wire died; no heartbeat verdict
        assert gateway.registry.crashes == 1

    def test_unordered_stream_takes_a_replacement_volunteer(self):
        # One volunteer is killed mid-frame and the other leaves after four
        # frames, so the stream can only finish through a fresh volunteer
        # that joins after the kill.  It borrows from the same unordered
        # lender, and every value comes back exactly once.
        inputs = payloads(40)
        dmap = DistributedMap(scheduler="asyncio", batch_size=2, ordered=False)
        sink = pull(from_iterable(inputs), dmap, collect())
        gateway = dmap.serve_volunteers(fn_ref=SLEEP_ECHO)
        victim = spawn_volunteer_process(gateway.url, name="victim")
        survivor = spawn_volunteer_process(
            gateway.url, name="survivor", max_frames=4
        )
        killed = kill_when_busy(dmap, "victim", victim.pid)
        replacement_box = {}

        def send_replacement():
            if killed.wait(30):
                replacement_box["proc"] = spawn_volunteer_process(
                    gateway.url, name="replacement"
                )

        threading.Thread(target=send_replacement, daemon=True).start()
        try:
            dmap.drive(sink, timeout=90)
            result = sink.result()
        finally:
            dmap.close()
            victim.join(10)
            survivor.join(10)
            replacement = replacement_box.get("proc")
            if replacement is not None:
                replacement.join(10)
        assert killed.is_set(), "victim was never caught with work in flight"
        assert sorted(value["n"] for value in result) == list(range(40))
        assert gateway.volunteers_joined == 3
        assert gateway.volunteers_crashed == 1
        assert gateway.volunteers_left == 2
        assert set(dmap.workers) == {"victim", "survivor", "replacement"}
        assert dmap.stats.values_relent >= 1
        per_substream = dmap.stats.results_per_substream
        assert per_substream[dmap.workers["replacement"].substream.id] > 0


class TestSigstopSuspicion:
    def test_heartbeat_suspects_a_stalled_volunteer(self):
        # SIGSTOP leaves the socket open: only the heartbeat can notice.
        inputs = payloads(30)
        dmap = DistributedMap(scheduler="asyncio", batch_size=2)
        sink = pull(from_iterable(inputs), dmap, collect())
        gateway = dmap.serve_volunteers(
            fn_ref=SLEEP_ECHO, heartbeat_interval=0.2, heartbeat_timeout=1.0
        )
        victim = spawn_volunteer_process(gateway.url, name="victim")
        survivor = spawn_volunteer_process(gateway.url, name="survivor")
        stopped = kill_when_busy(dmap, "victim", victim.pid, sig=signal.SIGSTOP)
        try:
            dmap.drive(sink, timeout=90)
            result = sink.result()
        finally:
            dmap.close()
            if stopped.is_set():
                os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            survivor.join(10)
        assert stopped.is_set(), "victim was never caught with work in flight"
        assert [value["n"] for value in result] == list(range(30))
        assert gateway.suspicions == 1
        assert gateway.volunteers_crashed == 1
        assert gateway.volunteers_joined == 2
