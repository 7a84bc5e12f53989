"""Fault-injection churn: hundreds of workers with random crash-stop failures.

The paper's conservativeness/fault-tolerance claim (section 2.3, Table 1) is
that every input is processed exactly once no matter how workers churn.  This
test drives a :class:`StreamLender` with 220 sub-streams whose crash points
come from the :class:`repro.sim.failures.ChurnModel` generator, and asserts
exactly-once delivery, input ordering, and that :class:`LenderStats` balances
(``values_lent == results_received + outstanding + relendable +
values_relent``).  After every attach and every delivery step the lender's
kept open-sub-stream count is compared with a scan of its sub-streams.
"""

from __future__ import annotations

from repro.core import StreamLender, UnorderedStreamLender
from repro.errors import StreamAborted, WorkerCrashed
from repro.pullstream import DONE, collect, pull, values
from repro.sim.failures import ChurnModel

WORKERS = 220
INPUTS = 500


def lend(lender):
    box = []
    lender.lend_stream(lambda err, sub: box.append(sub))
    return box[0]


class TestChurn:
    make = StreamLender

    def test_exactly_once_under_random_crash_stop_churn(
        self, substream_driver, assert_open_counts
    ):
        lender = self.make()
        inputs = list(range(INPUTS))
        output = pull(values(inputs), lender, collect())

        # Crash points drawn from the churn model: a worker whose first
        # crash event falls inside the horizon crashes after that many
        # borrows; survivors keep working.  The fixed seed makes the run
        # deterministic.
        worker_ids = [f"worker-{index}" for index in range(WORKERS)]
        churn = ChurnModel(mean_uptime=8.0, seed=1234)
        schedule = churn.schedule_for(worker_ids, horizon=12.0)
        crash_points = {}
        for event in schedule:
            if event.kind == "crash" and event.worker_id not in crash_points:
                crash_points[event.worker_id] = int(event.time)

        # Sanity: the schedule must leave survivors, or liveness is moot.
        survivors = [wid for wid in worker_ids if wid not in crash_points]
        assert survivors, "churn model crashed every worker; adjust parameters"
        assert len(crash_points) >= WORKERS // 2, "churn should be substantial"

        drivers = []
        for worker_id in worker_ids:
            sub = lend(lender)
            if worker_id in crash_points:
                driver = substream_driver(
                    sub, crash_after=crash_points[worker_id], auto_deliver=False
                )
            else:
                # Healthy workers hold one value at a time so the work is
                # spread instead of being swallowed by the first joiner.
                driver = substream_driver(sub, auto_deliver=False, max_in_flight=1)
            drivers.append(driver.start())
            assert_open_counts(lender)

        # Round-robin delivery until the stream drains (bounded, so a
        # liveness regression fails the test instead of hanging it).
        for _round in range(10 * INPUTS):
            if output.done:
                break
            for driver in drivers:
                if not driver.crashed:
                    driver.deliver_all()
                    assert_open_counts(lender)
        assert output.done
        assert lender.open_substreams == 0

        # Exactly once, in input order (any order when unordered).
        expected = [value * 10 for value in inputs]
        if self.make is StreamLender:
            assert output.result() == expected
        else:
            assert sorted(output.result()) == expected

        stats = lender.stats
        assert stats.values_read == INPUTS
        assert stats.results_delivered == INPUTS
        assert lender.outstanding == 0
        assert lender.relendable == 0
        # Conservativeness invariant: every lending event is accounted for —
        # it produced a result, is still outstanding, awaits re-lending, or
        # was a re-lend of a recycled value.
        assert stats.values_lent == (
            stats.results_received
            + lender.outstanding
            + lender.relendable
            + stats.values_relent
        )
        assert stats.values_lent == INPUTS + stats.values_relent
        # Per-substream accounting adds up.
        assert sum(stats.lent_per_substream.values()) == stats.values_lent
        assert sum(stats.results_per_substream.values()) == stats.results_received
        # Every sub-stream was opened, and crashed ones are counted as failed.
        assert stats.substreams_opened == WORKERS
        assert stats.substreams_failed >= len(
            [wid for wid, point in crash_points.items() if point < INPUTS]
        ) // 2
        assert (
            stats.substreams_failed + stats.substreams_closed == stats.substreams_opened
        )


class TestOpenCount:
    """``open_substreams`` moves exactly where ``sub.closed`` flips."""

    make = StreamLender

    def test_every_way_a_substream_closes(self, substream_driver, assert_open_counts):
        lender = self.make()
        read = pull(values(list(range(20))), lender)
        subs = [lend(lender) for _ in range(5)]
        assert_open_counts(lender)
        assert lender.open_substreams == 5

        # Worker-side abort of the borrow stream.
        subs[0].source(DONE, lambda end, value: None)
        assert_open_counts(lender)
        assert lender.open_substreams == 4
        # A double close: the result stream then errors on the same sub-stream.
        subs[0].sink(lambda end, cb: cb(WorkerCrashed("late"), None))
        assert_open_counts(lender)
        assert lender.open_substreams == 4

        # A crash-stop while holding a value, then a normal end.
        substream_driver(subs[1], crash_after=1, auto_deliver=False).start()
        assert_open_counts(lender)
        assert lender.open_substreams == 3
        subs[2].sink(lambda end, cb: cb(DONE, None))
        assert_open_counts(lender)
        assert lender.open_substreams == 2

        # Downstream abort closes whatever is still open, once.
        read(DONE, lambda end, value: None)
        assert_open_counts(lender)
        assert lender.open_substreams == 0
        subs[3].source(DONE, lambda end, value: None)
        assert_open_counts(lender)
        assert lender.open_substreams == 0

        # lend_stream on an ended output opens nothing.
        refused = []
        assert lender.lend_stream(lambda err, sub: refused.append((err, sub))) is None
        assert isinstance(refused[0][0], StreamAborted) and refused[0][1] is None
        assert_open_counts(lender)
        assert lender.open_substreams == 0


class TestUnorderedChurn(TestChurn):
    make = UnorderedStreamLender


class TestUnorderedOpenCount(TestOpenCount):
    make = UnorderedStreamLender
