"""Executable version of the paper's Table 1: programming-model properties.

Each test exercises one row of Table 1 on the public API, so this module also
serves as the reproduction artefact for experiment T1 (see the README's
"Running the tests and benches").  Every row but *Ordered* also holds for an
``ordered=False`` map; ``TestTable1PropertiesUnordered`` checks them there.
"""

from __future__ import annotations


from repro import DistributedMap
from repro.core import StreamLender, UnorderedStreamLender
from repro.pullstream import collect, from_iterable, pull, take, values


class Table1Rows:
    """The rows that do not depend on the order of the output, on a map or
    lender built with ``ordered``; ``same`` compares the output as a
    sequence when ordered and as a multiset otherwise."""

    ordered = True

    def make_lender(self):
        return StreamLender() if self.ordered else UnorderedStreamLender()

    def same(self, results, expected):
        if self.ordered:
            assert results == expected
        else:
            assert sorted(results) == sorted(expected)

    def test_streaming_map(self, square_fn):
        """Streaming Map: x1, x2, ... -> f(x1), f(x2), ..."""
        dmap = DistributedMap(ordered=self.ordered)
        output = pull(values([1, 2, 3, 4, 5]), dmap, collect())
        dmap.add_local_worker(square_fn)
        self.same(output.result(), [1, 4, 9, 16, 25])

    def test_dynamic_workers_join_any_time(self, square_fn):
        """Dynamic: new devices may join at any time during execution."""
        dmap = DistributedMap(ordered=self.ordered)
        output = pull(values(list(range(10))), dmap, collect())
        assert not output.done
        dmap.add_local_worker(square_fn)      # joins after the stream started
        assert output.done
        dmap.add_local_worker(square_fn)      # joining after completion is harmless
        self.same(output.result(), [value ** 2 for value in range(10)])

    def test_unbounded_number_of_participants(self, square_fn):
        """Unbounded: no a-priori limit on the number of participants."""
        dmap = DistributedMap(ordered=self.ordered)
        output = pull(values(list(range(64))), dmap, collect())
        for _ in range(50):
            dmap.add_local_worker(square_fn)
        assert len(dmap.workers) == 50
        self.same(output.result(), [value ** 2 for value in range(64)])

    def test_lazy_inputs_read_when_resources_available(self):
        """Lazy: inputs are read only when computing resources are available."""
        materialised = []

        def generator():
            index = 0
            while True:
                materialised.append(index)
                yield index
                index += 1

        dmap = DistributedMap(ordered=self.ordered)
        output = pull(from_iterable(generator()), dmap, take(5), collect())
        assert materialised == []            # nothing read before a worker joins
        dmap.add_local_worker(lambda v, cb: cb(None, v))
        self.same(output.result(), [0, 1, 2, 3, 4])
        assert len(materialised) < 10        # far fewer than an eager read

    def test_fault_tolerant_crash_stop(self, substream_driver):
        """Fault-tolerant: crash-stop failures are tolerated transparently."""
        lender = self.make_lender()
        output = pull(values(list(range(9))), lender, collect())
        crashing = []
        lender.lend_stream(lambda err, sub: crashing.append(sub))
        substream_driver(crashing[0], crash_after=3, auto_deliver=False).start()
        healthy = []
        lender.lend_stream(lambda err, sub: healthy.append(sub))
        substream_driver(healthy[0]).start()
        self.same(output.result(), [value * 10 for value in range(9)])

    def test_conservative_single_copy_at_a_time(self, substream_driver):
        """Conservative: a value is submitted to at most one device at a time,
        so the total work equals the input size plus re-lent values only."""
        lender = self.make_lender()
        output = pull(values(list(range(10))), lender, collect())
        subs = []
        for _ in range(3):
            lender.lend_stream(lambda err, sub: subs.append(sub))
        drivers = [substream_driver(sub) for sub in subs]
        for driver in drivers:
            driver.start()
        output.result()
        total_borrowed = sum(len(driver.borrowed) for driver in drivers)
        assert total_borrowed == 10          # no value was processed twice
        assert lender.stats.values_relent == 0

    def test_adaptive_faster_devices_receive_more_inputs(self, substream_driver):
        """Adaptive: devices that ask more often receive more values."""
        lender = self.make_lender()
        output = pull(values(list(range(30))), lender, collect())
        subs = []
        for _ in range(2):
            lender.lend_stream(lambda err, sub: subs.append(sub))
        fast = substream_driver(subs[0], auto_deliver=False, max_in_flight=4)
        slow = substream_driver(subs[1], auto_deliver=False, max_in_flight=1)
        fast.start()
        slow.start()
        # The fast worker is serviced four times as often.
        for _ in range(60):
            if output.done:
                break
            fast.deliver_all()
            if _ % 4 == 0:
                slow.deliver_all()
        for _ in range(10):
            if output.done:
                break
            fast.deliver_all()
            slow.deliver_all()
        assert output.done
        assert len(fast.borrowed) > len(slow.borrowed)


class TestTable1Properties(Table1Rows):
    def test_ordered_outputs(self):
        """Ordered: outputs provided in input order even with several workers
        finishing at different times."""
        lender = StreamLender()
        output = pull(values(list(range(20))), lender, collect())
        subs = []
        for _ in range(3):
            lender.lend_stream(lambda err, sub: subs.append(sub))
        # Manually interleave: each sub-stream takes values one at a time and
        # results are delivered in reverse order of borrowing.
        borrowed = {sub.id: [] for sub in subs}
        for _round in range(10):
            for sub in subs:
                sub.source(None, lambda end, value, s=sub: (
                    borrowed[s.id].append(value) if end is None else None
                ))
        for sub in reversed(subs):
            sub.sink(values([value * 2 for value in borrowed[sub.id]]))
        assert output.result() == [value * 2 for value in range(20)]


class TestTable1PropertiesUnordered(Table1Rows):
    ordered = False
