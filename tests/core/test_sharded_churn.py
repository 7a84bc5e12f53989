"""Fault-injection churn across lender shards.

Mirror of ``tests/core/test_lender_churn.py`` for the multi-master
composition: workers churn with random crash-stop failures while attached to
a :class:`~repro.core.sharding.ShardedLender`, and the test asserts that
exactly-once delivery, **global** output order, and the per-shard
:class:`~repro.core.lender.LenderStats` balance all survive.  Placement goes
through the least-loaded policy, so the crash schedule also exercises the
rebalancing of later attachments towards depleted shards.

The same schedule runs against the ``ordered=False`` composition
(:class:`~repro.core.lender.UnorderedStreamLender` shards joined in
completion order), where the order assertion relaxes to exactly-once
permutation delivery — and additionally covers the shard whose workers all
die after its slice completed (the dead-shard short-circuit must terminate
the merged stream instead of wedging on a shard that can never answer).

Every attach and every delivery step of these runs also compares each shard's
kept open-sub-stream count with a scan of its sub-streams, and a hypothesis
test holds ``least_loaded_shard()`` to the scanning reference kept here.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import ShardedLender
from repro.errors import WorkerCrashed
from repro.pullstream import DONE, collect, pull, values
from repro.sim.failures import ChurnModel

SHARDS = 4
WORKERS = 220
INPUTS = 500


def lend(lender):
    box = []
    lender.lend_stream(lambda err, sub: box.append(sub))
    return box[0]


def build_churn_run(sharded, substream_driver, check, workers=WORKERS,
                    inputs=INPUTS, seed=1234):
    """Attach *workers* churning drivers to *sharded*; returns the pieces.

    The churn schedule is deterministic for a given *seed*: roughly half the
    workers crash after a known number of borrows, the rest survive, and
    every shard keeps at least one survivor (asserted, or the run would
    legitimately stall waiting for volunteers on a depleted shard).
    *check* (the ``assert_open_counts`` fixture) runs after every attach.
    """
    input_values = list(range(inputs))
    output = pull(values(input_values), sharded, collect())

    worker_ids = [f"worker-{index}" for index in range(workers)]
    churn = ChurnModel(mean_uptime=8.0, seed=seed)
    schedule = churn.schedule_for(worker_ids, horizon=12.0)
    crash_points = {}
    for event in schedule:
        if event.kind == "crash" and event.worker_id not in crash_points:
            crash_points[event.worker_id] = int(event.time)

    survivors = [wid for wid in worker_ids if wid not in crash_points]
    assert survivors, "churn model crashed every worker; adjust parameters"
    assert len(crash_points) >= workers // 2, "churn should be substantial"

    drivers = []
    placements = []
    for worker_id in worker_ids:
        sub = lend(sharded)  # least-loaded placement
        placements.append(sub.shard)
        if worker_id in crash_points:
            driver = substream_driver(
                sub, crash_after=crash_points[worker_id], auto_deliver=False
            )
        else:
            driver = substream_driver(sub, auto_deliver=False, max_in_flight=1)
        drivers.append(driver.start())
        check(*sharded.shards)

    survivors_per_shard = [0] * sharded.shard_count
    for worker_id, shard in zip(worker_ids, placements):
        if worker_id not in crash_points:
            survivors_per_shard[shard] += 1
    assert all(survivors_per_shard), survivors_per_shard

    return input_values, output, drivers, placements


def drive_to_completion(sharded, output, drivers, rounds, check):
    for _round in range(rounds):
        if output.done:
            break
        for driver in drivers:
            if not driver.crashed:
                driver.deliver_all()
                check(*sharded.shards)
    assert output.done


def assert_shard_accounting(sharded, inputs, workers):
    """Per-shard slice accounting and the conservativeness invariant."""
    shards = sharded.shard_count
    for shard, lender in enumerate(sharded.shards):
        stats = lender.stats
        expected = len(range(shard, inputs, shards))
        assert stats.values_read == expected
        assert stats.results_delivered == expected
        assert lender.outstanding == 0
        assert lender.relendable == 0
        assert stats.values_lent == (
            stats.results_delivered
            + lender.outstanding
            + lender.relendable
            + stats.values_relent
        )
        assert sum(stats.lent_per_substream.values()) == stats.values_lent
        assert (
            sum(stats.results_per_substream.values()) == stats.results_delivered
        )
        assert (
            stats.substreams_failed + stats.substreams_closed
            == stats.substreams_opened
        )

    total = sharded.stats
    assert total.values_read == inputs
    assert total.results_delivered == inputs
    assert total.substreams_opened == workers
    assert total.values_lent == inputs + total.values_relent
    assert sum(total.lent_per_substream.values()) == total.values_lent


class TestShardedChurn:
    def test_exactly_once_global_order_under_churn(
        self, substream_driver, assert_open_counts
    ):
        sharded = ShardedLender(shards=SHARDS)
        inputs, output, drivers, placements = build_churn_run(
            sharded, substream_driver, assert_open_counts
        )

        # Least-loaded placement spreads the attachments across every shard.
        # The split is not perfectly even: workers that crash at start free
        # their slot immediately, pulling later attachments onto their shard
        # (the rebalancing behaviour under churn).
        for shard in range(SHARDS):
            assert placements.count(shard) >= WORKERS // (2 * SHARDS)

        drive_to_completion(
            sharded, output, drivers, 10 * INPUTS, assert_open_counts
        )

        # Exactly once, in global input order.
        assert output.result() == [value * 10 for value in inputs]

        # Per-shard accounting: each shard read exactly its round-robin
        # slice and delivered all of it, and its conservativeness invariant
        # balances independently of the other shards.
        assert_shard_accounting(sharded, INPUTS, WORKERS)


class TestUnorderedShardedChurn:
    def test_exactly_once_permutation_under_churn(
        self, substream_driver, assert_open_counts
    ):
        """The ordered churn schedule, replayed against ``ordered=False``:
        every input is answered exactly once (a permutation, nothing lost or
        duplicated across ~220 joining/crashing workers) and the per-shard
        accounting still balances."""
        sharded = ShardedLender(shards=SHARDS, ordered=False)
        assert not sharded.ordered
        inputs, output, drivers, placements = build_churn_run(
            sharded, substream_driver, assert_open_counts
        )
        for shard in range(SHARDS):
            assert placements.count(shard) >= WORKERS // (2 * SHARDS)

        drive_to_completion(
            sharded, output, drivers, 10 * INPUTS, assert_open_counts
        )

        # Exactly once: a permutation of the expected results.
        assert sorted(output.result()) == [value * 10 for value in inputs]
        assert_shard_accounting(sharded, INPUTS, WORKERS)

    def test_bounded_split_buffer_survives_churn(
        self, substream_driver, assert_open_counts
    ):
        """The churn run with ``max_buffer=2``: back-pressure must not cost
        liveness (every shard keeps a survivor, so every parked pump is
        eventually released) and delivery stays exactly-once."""
        sharded = ShardedLender(shards=SHARDS, ordered=False, max_buffer=2)
        inputs, output, drivers, _placements = build_churn_run(
            sharded, substream_driver, assert_open_counts
        )
        drive_to_completion(
            sharded, output, drivers, 10 * INPUTS, assert_open_counts
        )
        assert sorted(output.result()) == [value * 10 for value in inputs]
        assert sharded._branches.buffer_depths == [0] * SHARDS
        assert_shard_accounting(sharded, INPUTS, WORKERS)

    def test_no_wedge_when_a_shards_workers_all_die(
        self, substream_driver, assert_open_counts
    ):
        """A shard whose workers all crash after its slice completed cannot
        wedge the merged stream: the dead-shard short-circuit terminates it
        once every read value has been delivered."""
        sharded = ShardedLender(shards=2, ordered=False)
        inputs = list(range(40))
        output = pull(values(inputs), sharded, collect())

        # Shard 1: two workers that hold results back, deliver everything,
        # then crash.  Shard 0: a healthy auto-delivering worker.
        doomed = [
            substream_driver(
                lend_on(sharded, 1), auto_deliver=False, max_in_flight=1
            ).start()
            for _ in range(2)
        ]
        substream_driver(lend_on(sharded, 0)).start()
        for _round in range(10 * len(inputs)):
            if all(not d.pending_results and d.finished for d in doomed):
                break
            for driver in doomed:
                driver.deliver_all()
                assert_open_counts(*sharded.shards)
        for driver in doomed:
            driver.crash()
            assert_open_counts(*sharded.shards)
        assert output.done
        assert sorted(output.result()) == [value * 10 for value in inputs]


def lend_on(sharded, shard):
    box = []
    sharded.lend_stream(lambda err, sub: box.append(sub), shard=shard)
    return box[0]


def scanned_least_loaded(sharded):
    """``least_loaded_shard`` as it was before the lenders kept the count:
    copy every shard's sub-stream list and count the open ones (a shard with
    no work left sorts last either way)."""
    depths = None
    if sharded.max_buffer is not None and sharded._branches is not None:
        depths = sharded._branches.buffer_depths

    def load(index):
        subs = sharded.shards[index].substreams
        open_count = sum(1 for sub in subs if not sub.closed)
        backlog = -depths[index] if depths is not None else 0
        return (sharded.shards[index].work_done, open_count, backlog, len(subs), index)

    return min(range(sharded.shard_count), key=load)


class TestPlacementAgainstTheScan:
    @settings(max_examples=120, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=5),
        ordered=st.booleans(),
        max_buffer=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["attach", "pin", "borrow", "close", "crash", "abort"]),
                st.integers(min_value=0, max_value=63),
            ),
            max_size=60,
        ),
    )
    def test_least_loaded_shard_matches_the_reference_scan(
        self, shards, ordered, max_buffer, ops
    ):
        """Random attach / borrow / close / crash sequences: placement and
        the per-shard counts agree with the scan after every operation.
        Borrows that nobody answers leave values in the split buffers, so
        with *max_buffer* the depth tie-break is live."""
        sharded = ShardedLender(shards=shards, ordered=ordered, max_buffer=max_buffer)
        read = pull(values(list(range(40))), sharded)
        subs = []

        def check():
            for lender in sharded.shards:
                scanned = sum(1 for sub in lender.substreams if not sub.closed)
                assert lender.open_substreams == scanned
            assert sharded.least_loaded_shard() == scanned_least_loaded(sharded)

        check()
        for op, pick in ops:
            if op in ("attach", "pin"):
                shard = pick % shards if op == "pin" else None
                expected = scanned_least_loaded(sharded) if shard is None else shard
                sub = sharded.lend_stream(lambda err, sub: None, shard=shard)
                if sub is not None:  # None once the output was aborted
                    assert sub.shard == expected
                    subs.append(sub)
            elif op == "abort":
                if pick == 0:  # rare: it ends every shard
                    read(DONE, lambda end, value: None)
            elif subs:
                sub = subs[pick % len(subs)]
                if op == "borrow":
                    sub.source(None, lambda end, value: None)
                elif op == "close":
                    sub.source(DONE, lambda end, value: None)
                else:
                    sub.sink(lambda end, cb: cb(WorkerCrashed("gone"), None))
            check()
