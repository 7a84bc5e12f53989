"""Fault-tolerance tests for StreamLender (crash-stop sub-streams).

The ``TestUnordered*`` subclasses at the bottom run every case against
:class:`UnorderedStreamLender` too: re-lending after a crash, the
conservativeness counters and the abort cleanup do not depend on the
order of the output.
"""

from __future__ import annotations

import pytest

from repro.core import StreamLender, UnorderedStreamLender
from repro.pullstream import DONE, collect, pull, values


def lend(lender):
    box = []
    lender.lend_stream(lambda err, sub: box.append(sub))
    return box[0]


class LenderCase:
    """Run a test class against ``make``; ``same`` compares the output as
    a sequence on the ordered lender and as a multiset otherwise."""

    make = StreamLender

    def same(self, results, expected):
        if self.make is StreamLender:
            assert results == expected
        else:
            assert sorted(results) == sorted(expected)


class TestCrashRecovery(LenderCase):
    def test_values_relent_after_crash(self, substream_driver):
        lender = self.make()
        output = pull(values(list(range(8))), lender, collect())
        # The first worker borrows two values then crashes without answering.
        crasher = substream_driver(lend(lender), crash_after=2, auto_deliver=False)
        crasher.start()
        assert crasher.crashed
        # A healthy worker joins afterwards and completes everything,
        # including the two values the crashed worker held.
        healthy = substream_driver(lend(lender)).start()
        self.same(output.result(), [value * 10 for value in range(8)])
        assert lender.stats.values_relent == 2
        assert lender.stats.substreams_failed == 1
        assert set(healthy.borrowed) == set(range(8))

    def test_crash_before_borrowing_anything(self, substream_driver):
        lender = self.make()
        output = pull(values([1, 2, 3]), lender, collect())
        substream_driver(lend(lender), crash_after=0).start()
        substream_driver(lend(lender)).start()
        self.same(output.result(), [10, 20, 30])
        assert lender.stats.values_relent == 0

    def test_crash_of_all_substreams_then_new_one(self, substream_driver):
        lender = self.make()
        output = pull(values(list(range(5))), lender, collect())
        substream_driver(lend(lender), crash_after=1, auto_deliver=False).start()
        substream_driver(lend(lender), crash_after=2, auto_deliver=False).start()
        assert not output.done
        substream_driver(lend(lender)).start()
        self.same(output.result(), [value * 10 for value in range(5)])

    def test_liveness_once_an_active_substream_exists(self, substream_driver):
        """Paper section 2.3: once a value has been read, if there are active
        participating devices, its result is eventually provided."""
        lender = self.make()
        output = pull(values(list(range(20))), lender, collect())
        for _ in range(4):
            substream_driver(lend(lender), crash_after=2, auto_deliver=False).start()
        survivor = substream_driver(lend(lender)).start()
        self.same(output.result(), [value * 10 for value in range(20)])
        assert survivor.borrowed  # the survivor did the re-lent work

    def test_conservative_no_duplicate_results(self, substream_driver):
        """A single copy of each value is outstanding at any time, so the
        number of results delivered equals the number of inputs even with
        crashes and re-lending."""
        lender = self.make()
        output = pull(values(list(range(12))), lender, collect())
        substream_driver(lend(lender), crash_after=3, auto_deliver=False).start()
        substream_driver(lend(lender), crash_after=4, auto_deliver=False).start()
        substream_driver(lend(lender)).start()
        results = output.result()
        assert len(results) == 12
        self.same(results, [value * 10 for value in range(12)])
        assert lender.stats.results_delivered == 12

    def test_ordering_preserved_across_crashes(self, substream_driver):
        lender = self.make()
        inputs = list(range(15))
        output = pull(values(inputs), lender, collect())
        substream_driver(lend(lender), crash_after=5, auto_deliver=False).start()
        substream_driver(lend(lender)).start()
        self.same(output.result(), [value * 10 for value in inputs])

    def test_graceful_close_also_relends(self, substream_driver):
        """A sub-stream whose channel closes normally (volunteer leaves)
        behaves like a crash for the values it still held."""
        lender = self.make()
        output = pull(values(list(range(6))), lender, collect())
        sub = lend(lender)
        leaver = substream_driver(sub, auto_deliver=False).start()
        # The volunteer leaves: the borrow stream is aborted by the channel.
        sub.source(DONE, lambda _end, _value: None)
        substream_driver(lend(lender)).start()
        self.same(output.result(), [value * 10 for value in range(6)])

    def test_a_crash_after_the_last_answer_cannot_wedge_the_output(
        self, substream_driver
    ):
        """A worker that dies right after delivering its last result leaves
        nothing to re-lend: the output terminates without waiting on it."""
        lender = self.make()
        output = pull(values([0, 1, 2]), lender, collect())
        slow = substream_driver(
            lend(lender), auto_deliver=False, max_in_flight=1
        ).start()
        substream_driver(lend(lender)).start()
        assert not output.done
        slow.deliver_all()
        slow.crash()
        assert output.done
        self.same(output.result(), [0, 10, 20])
        assert lender.outstanding == 0
        assert lender.relendable == 0

    def test_failed_substream_counters(self, substream_driver):
        lender = self.make()
        pull(values(list(range(4))), lender, collect())
        substream_driver(lend(lender), crash_after=1, auto_deliver=False).start()
        assert lender.stats.substreams_failed == 1
        assert lender.relendable == 1
        assert lender.outstanding == 0

    def test_result_without_borrow_is_a_protocol_failure(self):
        """A worker that produces more results than it borrowed is closed."""
        lender = self.make()
        pull(values([1, 2, 3]), lender, collect())
        sub = lend(lender)
        # Deliver a result without ever borrowing a value.
        sub.sink(values(["spurious"]))
        assert sub.closed
        assert lender.stats.substreams_failed == 1


class TestAbortCleanup(LenderCase):
    """Regression: a downstream abort must close sub-streams through the
    regular cleanup path so the conservativeness invariant
    ``values_lent == results_received + relendable + outstanding``
    holds afterwards and the failure counters stay truthful."""

    def _assert_balanced(self, lender):
        stats = lender.stats
        assert stats.values_lent == (
            stats.results_received + lender.relendable + lender.outstanding
        )

    def test_abort_recycles_borrowed_values(self, substream_driver):
        lender = self.make()
        source = lender(values(list(range(10))))
        sub_box = []
        lender.lend_stream(lambda err, sub: sub_box.append(sub))
        holder = substream_driver(
            sub_box[0], auto_deliver=False, max_in_flight=4
        ).start()
        assert lender.outstanding == 4
        source(DONE, lambda _end, _value: None)  # downstream abort
        assert lender.outstanding == 0
        assert lender.relendable == 4
        assert sub_box[0].closed
        self._assert_balanced(lender)

    def test_abort_counts_graceful_closes(self, substream_driver):
        lender = self.make()
        source = lender(values(list(range(6))))
        subs = [lend(lender) for _ in range(3)]
        for sub in subs:
            substream_driver(sub, auto_deliver=False).start()
        source(DONE, lambda _end, _value: None)
        assert lender.stats.substreams_closed == 3
        assert lender.stats.substreams_failed == 0
        self._assert_balanced(lender)

    def test_error_abort_counts_failures(self, substream_driver):
        """An erroring abort crash-stops the open sub-streams: they must be
        counted as failed, not as gracefully closed."""
        lender = self.make()
        source = lender(values(list(range(6))))
        substream_driver(lend(lender), auto_deliver=False, max_in_flight=2).start()
        source(RuntimeError("downstream exploded"), lambda _end, _value: None)
        assert lender.stats.substreams_failed == 1
        assert lender.stats.substreams_closed == 0
        assert lender.outstanding == 0
        self._assert_balanced(lender)

    def test_abort_after_partial_delivery(self, substream_driver):
        lender = self.make()
        output_box = []
        source = lender(values(list(range(8))))
        driver_sub = lend(lender)
        driver = substream_driver(driver_sub, auto_deliver=False, max_in_flight=3)
        driver.start()
        # Pull two results downstream, then abort with work outstanding.
        driver.deliver_all()
        source(None, lambda end, value: output_box.append((end, value)))
        assert output_box and output_box[0][0] is None
        source(DONE, lambda _end, _value: None)
        assert lender.outstanding == 0
        self._assert_balanced(lender)


class TestCrashTiming(LenderCase):
    @pytest.mark.parametrize("crash_after", [0, 1, 2, 3, 5, 7])
    def test_crash_at_every_point_still_completes(self, substream_driver, crash_after):
        lender = self.make()
        inputs = list(range(8))
        output = pull(values(inputs), lender, collect())
        substream_driver(lend(lender), crash_after=crash_after, auto_deliver=False).start()
        substream_driver(lend(lender)).start()
        self.same(output.result(), [value * 10 for value in inputs])


class TestUnorderedCrashRecovery(TestCrashRecovery):
    make = UnorderedStreamLender


class TestUnorderedAbortCleanup(TestAbortCleanup):
    make = UnorderedStreamLender


class TestUnorderedCrashTiming(TestCrashTiming):
    make = UnorderedStreamLender
