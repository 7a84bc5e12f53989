#!/usr/bin/env python
"""Crypto search across an unordered sharded master: first answer wins.

The paper's motivating search scenario (section 4.2): many attempts test
nonce ranges against a difficulty target, exactly one contains a valid
nonce, and the only result anybody cares about is the first hit.  An
*ordered* master would hold that hit hostage until every earlier attempt
completed; ``DistributedMap(shards=N, ordered=False)`` merges the shard
outputs in completion order instead, so the hit is delivered the moment any
shard computes it — and the ``find`` sink then aborts the whole pipeline
(early termination), cancelling the attempts still queued on every shard.

Run with::

    python examples/unordered_search.py --shards 2 --slow-count 100000

Add ``--ordered`` to watch the same search pay the in-order delivery tax.
"""

from __future__ import annotations

import argparse
import time

from repro import DistributedMap, pull
from repro.pool.workloads import crypto_search_inputs
from repro.pullstream import find, values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--slow-count", type=int, default=100_000,
        help="nonces per slow attempt (the ranges the hit must not wait for)",
    )
    parser.add_argument(
        "--values", type=int, default=12, help="number of search attempts"
    )
    parser.add_argument(
        "--split-buffer", type=int, default=4,
        help="per-shard input buffer cap (bounds memory if a shard stalls; "
        "--ordered only: unordered shards take values on demand)",
    )
    parser.add_argument(
        "--ordered", action="store_true",
        help="use the ordered merge instead, for comparison",
    )
    args = parser.parse_args()
    if args.shards < 2:
        parser.error("--shards must be >= 2 (the unordered merge joins "
                     "multiple shards; use ordered=False on an unsharded "
                     "map for single-lender completion order)")
    if args.values < 2:
        parser.error("--values must be >= 2 (one slow attempt plus the hit)")

    # The hit must land on a fast shard (index % shards != 0) and inside the
    # input; prefer a later index so the in-order delivery tax is visible.
    hit_index = 5 if args.values > 5 and 5 % args.shards != 0 else 1
    attempts, nonce = crypto_search_inputs(
        args.slow_count, shards=args.shards, values=args.values,
        hit_index=hit_index,
    )
    print(f"searching {args.values} attempts for nonce {nonce} "
          f"on {args.shards} shards ({'ordered' if args.ordered else 'unordered'})")

    started = time.perf_counter()
    dmap = DistributedMap(
        ordered=args.ordered,
        shards=args.shards,
        batch_size=1,
        split_buffer=args.split_buffer,
    )
    # ``find`` delivers the first hit and aborts the stream: early
    # termination fans out through the completion-order merge to every
    # shard, its workers, and the input.
    sink = pull(
        values(attempts),
        dmap,
        find(lambda result: result.get("found")),
    )
    try:
        for _ in range(args.shards):
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
    print(f"found nonce {hit['nonce']} in {elapsed:.3f}s after "
          f"{delivered} delivered result(s); the remaining "
          f"{args.values - delivered} attempt(s) were cancelled")


if __name__ == "__main__":
    main()
