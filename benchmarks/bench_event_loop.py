"""Event-loop scheduler: interleaved transports on one thread.

The claim checked here, on **one master**: a process pool and
a simulated network channel make progress **interleaved in one thread** —
both workers deliver results, their deliveries alternate on the same event
loop (the pool's from its pipe's reader callback, the channel's from a
simulated event, a timer on the loop's heap), every stream callback runs on
the calling thread, and the merged output preserves input order with
exactly-once delivery.

Run with ``--benchmark-only -s`` for the measured numbers, or in fast mode
(``REPRO_BENCH_FAST=1 ... --benchmark-disable``) as a smoke test.
"""

from __future__ import annotations

import os
import threading

from repro.net.channel import SimChannel
from repro.pool import ProcessPoolWorker
from repro.pullstream import async_map, collect, pull, values
from repro.sched import EventLoopScheduler
from repro.sim.clock import VirtualClock
from repro.sim.network import LAN_PROFILE, NetworkModel
from repro.sim.scheduler import Scheduler

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))


def test_pool_and_sim_channel_interleave_in_one_thread(benchmark):
    """A pool and a simulated channel progress interleaved on one loop."""
    count = 24 if FAST else 48
    sleep_s = 0.002 if FAST else 0.004
    inputs = [{"sleep": sleep_s, "index": index} for index in range(count)]

    def run():
        sim = Scheduler(VirtualClock())
        network = NetworkModel(default_profile=LAN_PROFILE, seed=1234)
        channel = SimChannel(
            sim, network, "master", "volunteer", heartbeats_enabled=False
        )
        channel.connect(lambda _err, _chan: None)
        sim.run_until(sim.now + 1.0)
        assert channel.established

        main_thread = threading.get_ident()
        callback_threads = set()

        def remote_fn(value, cb):
            callback_threads.add(threading.get_ident())
            cb(None, value)

        pull(
            channel.remote.duplex.source,
            async_map(remote_fn),
            channel.remote.duplex.sink,
        )

        from repro.core.distributed_map import DistributedMap

        with EventLoopScheduler() as sched:
            # Paced: one LAN hop (2 ms virtual) takes as long as one pool
            # value's sleep, so the channel's events span the pool's frames
            # however the loop orders two sources that are ready at once.
            sched.register_sim(sim, time_scale=1.0)
            trace = []
            sched.add_dispatch_listener(
                lambda source: trace.append(
                    "pool" if isinstance(source, ProcessPoolWorker) else "other"
                )
            )
            # the channel's results arrive as simulated events, not dispatches
            channel.local.on_receive(lambda _payload: trace.append("sim"))
            dmap = DistributedMap(batch_size=2, scheduler=sched)
            sink = pull(values(inputs), dmap, collect())
            try:
                dmap.add_channel(channel.local.duplex, worker_id="channel")
                dmap.add_process_pool(
                    "repro.pool.workloads:sleep_echo",
                    processes=1,
                    worker_id="pool",
                )
                dmap.drive(sink, timeout=60)
                results = sink.result()
            finally:
                dmap.close()
            stats = dmap.stats
        return results, stats, trace, callback_threads, main_thread

    results, stats, trace, callback_threads, main_thread = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    per_worker = list(stats.results_per_substream.values())
    switches = sum(1 for before, after in zip(trace, trace[1:]) if before != after)
    print(
        f"\npool+channel: per-worker {per_worker}, "
        f"deliveries sim={trace.count('sim')} pool={trace.count('pool')} "
        f"switches={switches}"
    )
    # Exactly once, in input order, across the two transports.
    assert results == inputs
    assert stats.results_delivered == count
    # Both the pool and the channel made progress...
    assert len(per_worker) == 2 and all(delivered > 0 for delivered in per_worker)
    # ... interleaved: the delivery trace switches between the simulated
    # channel and the pool (not all of one, then all of the other).
    assert switches >= 2, trace
    # ... and every stream callback ran on the driving thread: the loop
    # interleaves sources, it does not parallelise the stream machinery.
    assert callback_threads == {main_thread}
