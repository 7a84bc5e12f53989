#!/usr/bin/env python
"""Move large payloads to a pool through shared memory instead of the pipe.

The process-pool backend's default transport pickles every frame — inputs
and results — through the pipe of the child that runs it.  For the paper's
binary workloads (raytraced pixel buffers, image tiles) that serialization
dominates the run.  ``transport="shm"`` keeps the control plane unchanged
and moves the payload bytes through a shared-memory slot ring: one memcpy
in, one memcpy out, only tiny control records on the pipe, and transparent
fallback to the pipe for payloads that fit no slot.

Run with::

    python examples/shm_transport.py --tiles 48 --tile-kb 512 --processes 2

What the transport costs and saves is measured by the ``tiles_shm``
workload of ``perf/run.py``.
"""

from __future__ import annotations

import argparse
import time

from repro import DistributedMap, collect, pull, values
from repro.pool.workloads import invert_tile, large_payload_inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiles", type=int, default=48)
    parser.add_argument("--tile-kb", type=int, default=512, dest="tile_kb")
    parser.add_argument("--processes", type=int, default=2)
    parser.add_argument("--batch-size", type=int, default=4)
    args = parser.parse_args()
    tile_bytes = args.tile_kb * 1024
    tiles = large_payload_inputs(args.tiles, tile_bytes)

    started = time.perf_counter()
    dmap = DistributedMap(batch_size=args.batch_size)
    output = pull(values(tiles), dmap, collect())
    handle = dmap.add_process_pool(
        "repro.pool.workloads:invert_tile",
        processes=args.processes,
        batch_size=args.batch_size,
        transport="shm",
        slot_size=max(tile_bytes, 1 << 16),
    )
    try:
        dmap.drive(output)
        inverted = output.result()
    finally:
        dmap.close()
    elapsed = time.perf_counter() - started

    assert inverted == [invert_tile(tile) for tile in tiles]
    ring = handle.pool.ring
    print(
        f"inverted {len(inverted)} tiles of {args.tile_kb} KiB in {elapsed:.3f}s "
        f"on {args.processes} processes: {ring.bytes_written + ring.bytes_read >> 20} "
        f"MiB through {ring.slot_count} shared-memory slots "
        f"({ring.slots_acquired} acquired, {ring.slots_acquired - ring.slots_released} "
        f"leaked, {ring.fallbacks} pipe fallbacks)"
    )


if __name__ == "__main__":
    main()
