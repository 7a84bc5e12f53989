#!/usr/bin/env python
"""Shard the master across two process pools that pump concurrently.

A single `StreamLender` is one ordering domain: one reorder buffer, one
failure queue, one upstream pump.  `DistributedMap(shards=2)` splits the
input round-robin across two independent lenders (each with its own reorder
buffer, failure queue and stats), places each pool on the least-loaded
shard, and merges the outputs back in global input order while `drive()`
pumps both pools at once.

Run with::

    python examples/sharded_master.py --values 32 --shards 2
"""

from __future__ import annotations

import argparse
import time

from repro import DistributedMap, collect, pull, values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--values", type=int, default=32)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--processes-per-pool", type=int, default=1)
    parser.add_argument("--batch-size", type=int, default=2)
    parser.add_argument(
        "--sleep", type=float, default=0.02,
        help="seconds of simulated work per value (latency-bound, so the "
        "concurrency shows even on a single-core host)",
    )
    args = parser.parse_args()
    inputs = [
        {"sleep": args.sleep, "index": index} for index in range(args.values)
    ]

    started = time.perf_counter()
    dmap = DistributedMap(batch_size=args.batch_size, shards=args.shards)
    output = pull(values(inputs), dmap, collect())
    handles = [
        dmap.add_process_pool(
            "repro.pool.workloads:sleep_echo",
            processes=args.processes_per_pool,
            batch_size=args.batch_size,
        )
        for _ in range(args.shards)
    ]
    try:
        dmap.drive(output)          # pump every pool until the sink completes
        results = output.result()
    finally:
        dmap.close()
    elapsed = time.perf_counter() - started

    assert results == inputs        # global input order, exactly once
    placement = {handle.worker_id: handle.shard for handle in handles}
    print(
        f"processed {len(results)} values in {elapsed:.3f}s on "
        f"{args.shards} shards (placement {placement}, per-shard "
        f"{[stats.results_delivered for stats in dmap.per_shard_stats]})"
    )


if __name__ == "__main__":
    main()
