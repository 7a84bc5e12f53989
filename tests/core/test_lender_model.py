"""A reference model of the lender family, checked statefully.

``LenderModel`` is the oracle: three multisets over the input values the
source handed out — ``unlent`` (read, or re-lendable after a failure, held
by no worker), ``borrowed[w]`` (lent to worker ``w``, result not back yet)
and ``answered`` (result accepted by the lender) — plus the list of results
delivered downstream.  The state machine drives a real lender through its
public operations (attach a worker before or after the source, push input,
answer synchronously or later, fail a sub-stream, abort downstream, end the
source) and after every step checks the lender against the model:
conservation, exactly-once delivery, order when ordered, every callback
answered at most once (exactly once at termination) and
``open_substreams``.

It runs against both real lenders: ``StreamLender`` and
``UnorderedStreamLender``.
"""

from __future__ import annotations

from collections import Counter, deque

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import StreamLender, UnorderedStreamLender
from repro.pullstream import DONE, ProtocolChecker, async_map, drain, pull, pushable


class LenderModel:
    """What a lender may do with the values its source handed out."""

    def __init__(self, ordered: bool) -> None:
        self.ordered = ordered
        self.read: list = []  # source order
        self.unlent: Counter = Counter()
        self.borrowed: dict = {}  # worker -> Counter
        self.answered: Counter = Counter()
        self.delivered: list = []
        self.aborted = False

    def on_read(self, value) -> None:
        assert not self.aborted, f"{value} read after the downstream abort"
        self.read.append(value)
        self.unlent[value] += 1

    def on_lend(self, worker, value) -> None:
        assert not self.aborted, f"{value} lent after the downstream abort"
        assert self.unlent[value] > 0, f"{value} lent while not unlent"
        self.unlent[value] -= 1
        self.borrowed.setdefault(worker, Counter())[value] += 1

    def on_answer(self, worker, value) -> None:
        held = self.borrowed.get(worker, Counter())
        assert held[value] > 0, f"worker answered {value} it did not borrow"
        held[value] -= 1
        self.answered[value] += 1

    def on_fail(self, worker) -> None:
        held = self.borrowed.pop(worker, Counter())
        self.unlent.update(+held)

    def on_deliver(self, value) -> None:
        assert not self.aborted, f"{value} delivered after the downstream abort"
        delivered = self.delivered.count(value)
        assert delivered < self.answered[value], f"{value} delivered twice"
        if self.ordered:
            expected = self.read[len(self.delivered)]
            assert value == expected, f"delivered {value}, expected {expected}"
        self.delivered.append(value)

    def check_conservation(self) -> None:
        held = Counter()
        for counter in self.borrowed.values():
            held.update(+counter)
        assert Counter(self.read) == +self.unlent + held + self.answered
        assert not Counter(self.delivered) - self.answered

    def check_complete(self) -> None:
        assert Counter(self.delivered) == Counter(self.read)
        assert not +self.unlent
        assert all(not +held for held in self.borrowed.values())


def result_of(value):
    return ("result", value)


class Worker:
    """A local worker wired as ``add_local_worker`` wires one (async_map),
    with its sub-stream source behind a ProtocolChecker."""

    def __init__(self, machine: "LenderMachine", sub, sync: bool) -> None:
        self.machine = machine
        self.sub = sub
        self.sync = sync
        self.fail_next = False
        self.failed = False
        self.parked: deque = deque()  # (value, node_cb) awaiting an answer
        self.checker = ProtocolChecker(sub.source, name=f"sub-{id(self)}")
        pull(self.checker, async_map(self.compute), sub.sink)

    def compute(self, value, cb) -> None:
        model = self.machine.model
        model.on_lend(self, value)
        if self.fail_next:
            self.fail_next = False
            self.fail_with(cb)
        elif self.sync:
            self.answer(value, cb)
        else:
            self.parked.append((value, cb))

    def answer(self, value, cb) -> None:
        if not self.sub.closed:  # a closed sub-stream's result is dropped
            self.machine.model.on_answer(self, value)
        cb(None, result_of(value))

    def fail_with(self, cb) -> None:
        self.failed = True
        self.machine.model.on_fail(self)
        cb(RuntimeError("worker failed"), None)

    @property
    def asks_pending(self) -> bool:
        return self.checker._waiting


class LenderMachine(RuleBasedStateMachine):
    """Drive one lender configuration against :class:`LenderModel`."""

    make_lender = staticmethod(StreamLender)
    ordered = True
    #: the rule that attaches a crowd of synchronous workers before the source
    crowd = True

    def __init__(self) -> None:
        super().__init__()
        self.lender = self.make_lender()
        self.model = LenderModel(self.ordered)
        self.workers: list = []
        self.source = pushable()
        self.pushed = 0
        self.source_ended = False
        self.connected = False
        self.output = None
        self.sink_end = None
        self.abort_next = False

    # -- plumbing -----------------------------------------------------------
    def counted_source(self, end, cb) -> None:
        def answer(answer_end, value):
            if answer_end is None:
                self.model.on_read(value)
            cb(answer_end, value)

        self.source(end, answer)

    def on_output(self, value) -> bool:
        self.model.on_deliver(value[1])
        if self.abort_next:
            self.model.aborted = True
            return False  # drain() aborts the lender's output
        return True

    def on_output_end(self, end) -> None:
        assert self.sink_end is None, "termination reported twice"
        self.sink_end = end

    @property
    def finished(self) -> bool:
        return self.sink_end is not None or self.model.aborted

    def attach(self, sync: bool) -> None:
        subs: list = []
        self.lender.lend_stream(lambda err, sub: subs.append(sub))
        if subs[0] is not None:
            self.workers.append(Worker(self, subs[0], sync))

    # -- rules --------------------------------------------------------------
    @precondition(lambda self: not self.finished)
    @rule(sync=st.booleans())
    def attach_worker(self, sync) -> None:
        self.attach(sync)

    @precondition(lambda self: self.crowd and not self.connected)
    @rule(count=st.integers(min_value=100, max_value=400))
    def attach_synchronous_crowd_before_source(self, count, values=400) -> None:
        for _ in range(count):
            self.attach(True)
        for _ in range(values):
            self.source.push(self.pushed)
            self.pushed += 1

    @precondition(lambda self: not self.connected)
    @rule()
    def connect_source(self) -> None:
        self.connected = True
        checked = ProtocolChecker(self.counted_source, name="source")
        self.output = ProtocolChecker(self.lender(checked), name="output")
        drain(self.on_output, self.on_output_end)(self.output)

    @precondition(lambda self: not self.source_ended)
    @rule(count=st.integers(min_value=1, max_value=12))
    def push(self, count) -> None:
        for _ in range(count):
            self.source.push(self.pushed)
            self.pushed += 1

    @precondition(lambda self: not self.source_ended)
    @rule()
    def end_source(self) -> None:
        self.source_ended = True
        self.source.end()

    @precondition(lambda self: any(w.parked for w in self.workers))
    @rule(data=st.data())
    def answer_later(self, data) -> None:
        worker = data.draw(st.sampled_from([w for w in self.workers if w.parked]))
        value, cb = worker.parked.popleft()
        worker.answer(value, cb)

    @precondition(lambda self: any(not w.failed for w in self.workers))
    @rule(data=st.data())
    def fail_substream(self, data) -> None:
        worker = data.draw(st.sampled_from([w for w in self.workers if not w.failed]))
        if worker.parked:
            _value, cb = worker.parked.popleft()
            worker.fail_with(cb)
        else:
            worker.fail_next = True

    @precondition(lambda self: any(not w.sync for w in self.workers))
    @rule(data=st.data())
    def make_synchronous(self, data) -> None:
        worker = data.draw(st.sampled_from([w for w in self.workers if not w.sync]))
        worker.sync = True
        while worker.parked:
            worker.answer(*worker.parked.popleft())

    @precondition(lambda self: self.connected and not self.finished)
    @rule()
    def abort_downstream(self) -> None:
        self.abort_next = True

    # -- invariants ---------------------------------------------------------
    @invariant()
    def matches_the_model(self) -> None:
        model = self.model
        if not model.aborted:
            model.check_conservation()
        assert self.lender.open_substreams == sum(
            1 for w in self.workers if not w.sub.closed
        )
        for worker in self.workers:
            if worker.failed or model.aborted:
                assert worker.sub.closed
        if model.aborted:  # the abort was acknowledged
            assert self.sink_end is DONE
        if self.sink_end is not None:
            assert self.sink_end is DONE
        if self.sink_end is not None and not model.aborted:
            assert self.source_ended
            model.check_complete()
        if self.finished:
            # every borrow ask was answered (parked borrowers are released)
            assert not any(w.asks_pending for w in self.workers)
            assert self.lender.open_substreams == 0

    def teardown(self) -> None:
        # Liveness: with a synchronous worker, every value is delivered.
        if self.finished or not self.connected:
            return
        self.end_source()
        self.attach(True)
        for worker in self.workers:
            worker.sync = True
            while worker.parked:
                worker.answer(*worker.parked.popleft())
        if not self.finished:
            raise AssertionError("the stream stalled with a synchronous worker")
        self.matches_the_model()


class UnorderedMachine(LenderMachine):
    make_lender = staticmethod(UnorderedStreamLender)
    ordered = False


MACHINES = [LenderMachine, UnorderedMachine]
SETTINGS = settings(max_examples=30, stateful_step_count=25, deadline=None)

TestStreamLenderModel = LenderMachine.TestCase
TestUnorderedLenderModel = UnorderedMachine.TestCase
TestStreamLenderModel.settings = SETTINGS
TestUnorderedLenderModel.settings = SETTINGS


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.__name__)
@pytest.mark.parametrize("crowd", [120, 400])
def test_synchronous_crowd_before_the_source(machine, crowd):
    """The model's synchronous-before-source rule, as one fixed schedule."""
    state = machine()
    state.attach_synchronous_crowd_before_source(crowd, values=1000)
    state.connect_source()
    state.end_source()
    state.matches_the_model()
    assert state.sink_end is DONE
    assert len(state.model.delivered) == 1000
