"""Tests for StreamLender: basic behaviour, dynamics and ordering.

Every class except ``TestOrdering`` also runs against
:class:`UnorderedStreamLender` (the ``TestUnordered*`` subclasses at the
bottom): apart from the order of the output, the two lenders make the same
promises.
"""

from __future__ import annotations

import pytest

from repro.core import StreamLender, UnorderedStreamLender
from repro.errors import ProtocolError, StreamAborted
from repro.pullstream import DONE, collect, count, find, pull, take, values


def lend(lender):
    """Create a sub-stream, asserting success."""
    box = []
    lender.lend_stream(lambda err, sub: box.append((err, sub)))
    err, sub = box[0]
    assert err is None
    return sub


class LenderCase:
    """Run a test class against ``make``; ``same`` compares the output as
    a sequence on the ordered lender and as a multiset otherwise."""

    make = StreamLender

    def same(self, results, expected):
        if self.make is StreamLender:
            assert results == expected
        else:
            assert sorted(results) == sorted(expected)


class TestBasicLending(LenderCase):
    def test_single_substream_processes_everything(self, substream_driver):
        lender = self.make()
        output = pull(values([1, 2, 3, 4]), lender, collect())
        driver = substream_driver(lend(lender)).start()
        assert output.result() == [10, 20, 30, 40]
        assert driver.borrowed == [1, 2, 3, 4]

    def test_empty_input(self, substream_driver):
        lender = self.make()
        output = pull(values([]), lender, collect())
        substream_driver(lend(lender)).start()
        assert output.result() == []

    def test_no_substream_means_no_progress(self):
        lender = self.make()
        output = pull(values([1, 2, 3]), lender, collect())
        assert not output.done  # nobody to lend to: the stream waits

    def test_two_substreams_share_the_work(self, substream_driver):
        lender = self.make()
        output = pull(values(list(range(10))), lender, collect())
        # The first driver delivers results only when asked explicitly so the
        # second sub-stream gets a share of the work.
        first = substream_driver(lend(lender), auto_deliver=False)
        second = substream_driver(lend(lender), auto_deliver=False)
        first.start()
        second.start()
        first.deliver_all()
        second.deliver_all()
        # keep flushing until the stream completes (values borrowed after a
        # delivery need further flushes)
        for _ in range(20):
            if output.done:
                break
            first.deliver_all()
            second.deliver_all()
        self.same(output.result(), [value * 10 for value in range(10)])
        assert len(first.borrowed) + len(second.borrowed) == 10
        assert len(first.borrowed) > 0 and len(second.borrowed) > 0

    def test_substream_joining_late_still_helps(self, substream_driver):
        lender = self.make()
        output = pull(values(list(range(6))), lender, collect())
        first = substream_driver(lend(lender), auto_deliver=False).start()
        # later, a second sub-stream joins dynamically
        second = substream_driver(lend(lender), auto_deliver=False).start()
        for _ in range(20):
            if output.done:
                break
            first.deliver_all()
            second.deliver_all()
        self.same(output.result(), [value * 10 for value in range(6)])

    def test_stats_track_lending(self, substream_driver):
        lender = self.make()
        output = pull(values([1, 2, 3]), lender, collect())
        substream_driver(lend(lender)).start()
        output.result()
        assert lender.stats.values_read == 3
        assert lender.stats.values_lent == 3
        assert lender.stats.results_delivered == 3
        assert lender.stats.substreams_opened == 1


class TestOrdering:
    def test_results_in_input_order_despite_delivery_order(self, substream_driver):
        lender = StreamLender()
        output = pull(values(["a", "b", "c", "d"]), lender, collect())
        fast = substream_driver(lend(lender), fn=lambda v: v + "!", auto_deliver=False)
        slow = substream_driver(lend(lender), fn=lambda v: v + "?", auto_deliver=False)
        fast.start()
        slow.start()
        # Deliver the *second* sub-stream's results first: the output must
        # still come out in input order.
        slow.deliver_all()
        fast.deliver_all()
        for _ in range(10):
            if output.done:
                break
            fast.deliver_all()
            slow.deliver_all()
        results = output.result()
        assert [r[0] for r in results] == ["a", "b", "c", "d"]

    def test_delivered_counts_what_the_output_took(self, substream_driver):
        # Eleven later results arrive while the head is still out; once it
        # lands, ``find`` takes six values and aborts.  The workers answered
        # twelve, the output delivered six.
        lender = StreamLender()
        output = pull(values(list(range(12))), lender, find(lambda v: v == 50))
        head = substream_driver(lend(lender), auto_deliver=False).start()
        rest = substream_driver(lend(lender), auto_deliver=False, max_in_flight=11)
        rest.start().deliver_all()
        assert lender.stats.results_received == 11
        assert lender.stats.results_delivered == 0
        head.deliver_all()
        assert output.result() == 50
        assert lender.stats.results_received == 12
        assert lender.stats.results_delivered == 6

    def test_unordered_variant_releases_results_as_they_complete(self, substream_driver):
        lender = UnorderedStreamLender()
        collected = []
        output = pull(
            values([1, 2, 3, 4]),
            lender,
            collect(done=lambda end, items: collected.extend(items)),
        )
        first = substream_driver(lend(lender), auto_deliver=False)
        second = substream_driver(lend(lender), auto_deliver=False)
        first.start()
        second.start()
        second.deliver_all()
        first.deliver_all()
        for _ in range(10):
            if output.done:
                break
            first.deliver_all()
            second.deliver_all()
        assert sorted(output.result()) == [10, 20, 30, 40]


    @pytest.mark.parametrize(
        "make, held_back",
        [(StreamLender, True), (UnorderedStreamLender, False)],
        ids=["ordered", "unordered"],
    )
    def test_a_stalled_worker_holds_back_only_the_ordered_output(
        self, substream_driver, make, held_back
    ):
        """While one worker sits on value 0, a second worker answers every
        other value: the ordered output waits for value 0, the unordered
        one passes the other answers on as they come."""
        from repro.pullstream import through

        lender = make()
        delivered = []
        output = pull(values(list(range(10))), lender,
                      through(on_value=delivered.append), collect())
        slow = substream_driver(
            lend(lender), auto_deliver=False, max_in_flight=1
        ).start()
        fast = substream_driver(lend(lender)).start()
        assert slow.borrowed == [0]
        assert fast.borrowed == list(range(1, 10))
        assert not output.done
        assert delivered == ([] if held_back else [v * 10 for v in range(1, 10)])
        slow.deliver_all()
        assert sorted(output.result()) == [value * 10 for value in range(10)]


class TestLaziness(LenderCase):
    def test_values_read_only_when_borrowed(self, substream_driver):
        pulled = []

        def generator():
            for index in range(1000):
                pulled.append(index)
                yield index

        from repro.pullstream import from_iterable

        lender = self.make()
        output = pull(from_iterable(generator()), lender, take(3), collect())
        substream_driver(lend(lender)).start()
        assert output.result() == [0, 10, 20]
        # far fewer than 1000 inputs were materialised
        assert len(pulled) < 20

    def test_no_read_before_substream_asks(self):
        reads = []

        def spy_source(end, cb):
            reads.append(end)
            cb(DONE, None)

        lender = self.make()
        pull(spy_source, lender, collect())
        assert reads == []  # nothing read until a sub-stream asks


class TestDownstreamAbort(LenderCase):
    def test_take_aborts_lender_and_upstream(self, substream_driver):
        lender = self.make()
        output = pull(count(100), lender, take(5), collect())
        substream_driver(lend(lender)).start()
        assert output.result() == [10, 20, 30, 40, 50]
        # after the abort, new sub-streams are refused
        refused = []
        lender.lend_stream(lambda err, sub: refused.append(err))
        assert isinstance(refused[0], (StreamAborted, Exception))

    def test_lend_after_abort_reports_error(self):
        lender = self.make()
        output = pull(values([1]), lender, take(0), collect())
        assert output.result() == []
        errors = []
        lender.lend_stream(lambda err, sub: errors.append(err))
        assert errors and errors[0] is not None


class TestErrors(LenderCase):
    def test_upstream_error_reaches_output(self, substream_driver):
        from repro.pullstream import error

        lender = self.make()
        boom = RuntimeError("upstream exploded")
        output = pull(error(boom), lender, collect())
        substream_driver(lend(lender)).start()
        assert output.done
        assert output.end is boom

    def test_upstream_error_after_values(self, substream_driver):
        from repro.pullstream import from_iterable

        lender = self.make()
        boom = RuntimeError("late failure")

        def two_values_then_boom():
            yield 1
            yield 2
            raise boom

        output = pull(from_iterable(two_values_then_boom()), lender, collect())
        substream_driver(lend(lender)).start()
        assert output.done
        assert output.end is boom
        assert output.value == [10, 20]

    def test_double_upstream_connection_rejected(self):
        lender = self.make()
        lender(values([1]))
        with pytest.raises(ProtocolError):
            lender(values([2]))

    def test_output_double_ask_reports_protocol_error(self):
        lender = self.make()
        output_source = lender(values([1, 2]))
        results = []
        output_source(None, lambda end, value: results.append((end, value)))
        output_source(None, lambda end, value: results.append((end, value)))
        # the second concurrent ask is answered with a ProtocolError
        assert any(isinstance(end, ProtocolError) for end, _ in results)


class TestUnorderedBasicLending(TestBasicLending):
    make = UnorderedStreamLender


class TestUnorderedLaziness(TestLaziness):
    make = UnorderedStreamLender


class TestUnorderedDownstreamAbort(TestDownstreamAbort):
    make = UnorderedStreamLender


class TestUnorderedErrors(TestErrors):
    make = UnorderedStreamLender
