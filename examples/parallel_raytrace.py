#!/usr/bin/env python
"""Render a raytraced animation on a pool of OS processes.

The paper's motivating example (sections 2.1 and 4.1) renders the frames of a
rotation animation and assembles them in input order.  This example runs it
with the **process-pool backend**: one `DistributedMap` handle drives N
worker processes through the same StreamLender/Limiter composition used for
remote volunteers, with `--batch-size` frames coalesced per inter-process
round trip.

Run with::

    python examples/parallel_raytrace.py --frames 16 --processes 4
"""

from __future__ import annotations

import argparse
import time

from repro import DistributedMap, collect, pull, values
from repro.apps.raytracer import assemble_animation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=16)
    parser.add_argument("--size", default="32x24", help="frame size WxH")
    parser.add_argument("--processes", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=2)
    args = parser.parse_args()
    width, height = (int(part) for part in args.size.split("x"))
    inputs = [
        {
            "angle": (360.0 / args.frames) * index,
            "frame": index,
            "width": width,
            "height": height,
        }
        for index in range(args.frames)
    ]

    started = time.perf_counter()
    dmap = DistributedMap(batch_size=args.batch_size)
    output = pull(values(inputs), dmap, collect())
    handle = dmap.add_process_pool(
        "repro.pool.workloads:render_frame",
        processes=args.processes,
        batch_size=args.batch_size,
    )
    try:
        dmap.drive(output)
        frames = output.result()
    finally:
        dmap.close()
    elapsed = time.perf_counter() - started

    # Results arrive in input order, so the animation assembles directly.
    animation = assemble_animation(frames)
    print(
        f"rendered {animation['frames']} frames ({animation['bytes']} bytes) "
        f"in {elapsed:.3f}s on {args.processes} processes "
        f"({handle.pool.tasks_submitted} frames dispatched in batches of "
        f"<= {args.batch_size})"
    )


if __name__ == "__main__":
    main()
