#!/usr/bin/env python
"""One event loop driving two process pools and a simulated network channel.

Every `DistributedMap` is driven by an `EventLoopScheduler`; every pool
attached to it is registered there and delivers as its children answer, so
all pools compute concurrently without sharding.  Passing a scheduler
instance shares one loop between the map and a simulated network channel,
which then interleaves with the pools on the same thread.

Run with::

    python examples/event_loop_master.py --values 32

Add ``--with-channel`` to attach a simulated volunteer channel next to the
pools (its frames are stepped on the same loop).
"""

from __future__ import annotations

import argparse

from repro import DistributedMap, EventLoopScheduler, collect, pull, values
from repro.pullstream import async_map


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--values", type=int, default=32)
    parser.add_argument("--pools", type=int, default=2)
    parser.add_argument("--processes-per-pool", type=int, default=1)
    parser.add_argument("--batch-size", type=int, default=2)
    parser.add_argument(
        "--sleep", type=float, default=0.02,
        help="seconds of simulated work per value (latency-bound, so the "
        "concurrency shows even on a single-core host)",
    )
    parser.add_argument(
        "--with-channel", action="store_true",
        help="attach a simulated volunteer channel driven by the same loop",
    )
    args = parser.parse_args()
    inputs = [
        {"sleep": args.sleep, "index": index} for index in range(args.values)
    ]

    scheduler = EventLoopScheduler()
    dmap = DistributedMap(batch_size=args.batch_size, scheduler=scheduler)
    sink = pull(values(inputs), dmap, collect())
    try:
        if args.with_channel:
            from repro.net.channel import SimChannel
            from repro.sim.clock import VirtualClock
            from repro.sim.network import LAN_PROFILE, NetworkModel
            from repro.sim.scheduler import Scheduler

            sim = Scheduler(VirtualClock())
            network = NetworkModel(default_profile=LAN_PROFILE, seed=42)
            channel = SimChannel(sim, network, "master", "volunteer",
                                 heartbeats_enabled=False)
            channel.connect(lambda _err, _chan: None)
            sim.run_until(sim.now + 1.0)
            pull(
                channel.remote.duplex.source,
                async_map(lambda value, cb: cb(None, value)),
                channel.remote.duplex.sink,
            )
            dmap.add_channel(channel.local.duplex, worker_id="channel")
            scheduler.register_sim(sim)
        for index in range(args.pools):
            dmap.add_process_pool(
                "repro.pool.workloads:sleep_echo",
                processes=args.processes_per_pool,
                worker_id=f"pool-{index}",
            )
        dmap.drive(sink, timeout=300)
        results = sink.result()
        assert results == inputs
        shares = {
            worker_id: handle.pool.results_returned
            if handle.pool is not None
            else "(channel)"
            for worker_id, handle in dmap.workers.items()
        }
        print(
            f"processed {len(results)} values on one event loop "
            f"({scheduler.rounds} rounds, {scheduler.dispatches} dispatches); "
            f"per-worker results: {shares}"
        )
    finally:
        dmap.close()
        scheduler.close()


if __name__ == "__main__":
    main()
