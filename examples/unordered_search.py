#!/usr/bin/env python
"""Crypto search on an unordered master: first answer wins.

The paper's motivating search scenario (section 4.2): many attempts test
nonce ranges against a difficulty target, exactly one contains a valid
nonce, and the only result anybody cares about is the first hit.  An
*ordered* master would hold that hit hostage until every earlier attempt
completed; ``DistributedMap(ordered=False)`` releases each result the moment
any worker computes it — and the ``find`` sink then aborts the whole
pipeline (early termination), cancelling the attempts still queued.

Two one-process pools serve the map.  Attempt 0 is slow; whichever pool
takes it, the other one reaches the hit after a few quick probes.

Run with::

    python examples/unordered_search.py --slow-count 100000

Add ``--ordered`` to watch the same search pay the in-order delivery tax.
"""

from __future__ import annotations

import argparse
import time

from repro import DistributedMap, pull
from repro.pool.workloads import crypto_search_inputs
from repro.pullstream import find, values

POOLS = 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--slow-count", type=int, default=100_000,
        help="nonces in the slow attempt (the range the hit must not wait for)",
    )
    parser.add_argument(
        "--values", type=int, default=12, help="number of search attempts"
    )
    parser.add_argument(
        "--ordered", action="store_true",
        help="deliver in input order instead, for comparison",
    )
    args = parser.parse_args()
    if args.values < 2:
        parser.error("--values must be >= 2 (the slow attempt plus the hit)")

    # A later hit makes the in-order delivery tax visible.
    hit_index = min(5, args.values - 1)
    attempts, nonce = crypto_search_inputs(
        args.slow_count, values=args.values, hit_index=hit_index
    )
    mode = "ordered" if args.ordered else "unordered"
    print(f"searching {args.values} attempts for nonce {nonce} "
          f"on {POOLS} pools ({mode})")

    started = time.perf_counter()
    dmap = DistributedMap(ordered=args.ordered, batch_size=1)
    # ``find`` delivers the first hit and aborts the stream: early
    # termination fans out to every pool and the input.
    sink = pull(
        values(attempts),
        dmap,
        find(lambda result: result.get("found")),
    )
    try:
        for _ in range(POOLS):
            dmap.add_process_pool(
                "repro.pool.workloads:search_nonces", processes=1, batch_size=1
            )
        dmap.drive(sink)
        hit = sink.result()
    finally:
        dmap.close()
    elapsed = time.perf_counter() - started

    assert hit is not None and hit["nonce"] == nonce
    delivered = dmap.stats.results_delivered
    received = dmap.stats.results_received
    print(f"found nonce {hit['nonce']} in {elapsed:.3f}s after "
          f"{delivered} delivered result(s) ({received} answered); the "
          f"remaining {args.values - received} attempt(s) were cancelled")


if __name__ == "__main__":
    main()
