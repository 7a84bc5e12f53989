"""Property-based tests of the split/merge layer (hypothesis).

Mirror of ``tests/core/test_lender_hypothesis.py`` for the splitter/joiner
pair: randomised executions over random inputs, branch counts, answer
interleavings, buffer caps and abort points, checking on every one of them
that

* ``split`` + ``merge_ordered`` is the **identity** (global input order,
  exactly once);
* ``split`` + ``merge_unordered`` is a **permutation** with exactly-once
  delivery;
* with ``max_buffer=N`` no branch ever buffers more than N values;
* a downstream abort delivers a distinct prefix/subset of the input, aborts
  the upstream exactly once, and leaves every branch buffer empty;
* ``share`` hands each upstream value to exactly one branch, the one whose
  parked ask is oldest, reads nothing while no ask is parked, and answers
  every parked ask exactly once, over random interleavings of branch asks,
  branch aborts and upstream values, ends and errors.

The asynchrony that generates interesting interleavings comes from a *relay*
inserted between each branch and the joiner: the relay forwards asks
immediately but holds every answer until the randomised driver releases it,
modelling workers that answer at arbitrary times relative to one another.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.pullstream import (
    DONE,
    is_error,
    merge_ordered,
    merge_unordered,
    share,
    split,
    values,
)


class Relay:
    """Asynchronous pass-through: holds each upstream answer until released."""

    def __init__(self, branch):
        self.branch = branch
        self.held = None   # (end, value) answered upstream, not yet released
        self.cb = None     # downstream callback awaiting the release

    def source(self, end, cb):
        if end is not None:
            self.held = None
            self.cb = None
            self.branch(end, cb)
            return
        self.cb = cb
        self.branch(None, self._on_answer)

    def _on_answer(self, end, value):
        self.held = (end, value)

    def release(self):
        if self.held is None or self.cb is None:
            return
        (end, value), self.held = self.held, None
        cb, self.cb = self.cb, None
        cb(end, value)


def run_schedule(n_values, n_branches, ordered, max_buffer, abort_at, seed):
    """Run one randomised split/merge execution and return its observations."""
    rng = random.Random(seed)
    inputs = list(range(n_values))
    upstream_ends = []
    inner = values(inputs)

    def observed(end, cb):
        if end is not None:
            upstream_ends.append(end)
        inner(end, cb)

    branches = split(observed, n_branches, max_buffer=max_buffer)
    relays = [Relay(branch) for branch in branches]
    join = merge_ordered if ordered else merge_unordered
    merged = join([relay.source for relay in relays])

    outputs = []
    state = {"end": None, "asking": False}
    depth_violations = []

    def check_depths():
        if max_buffer is not None:
            if any(depth > max_buffer for depth in branches.buffer_depths):
                depth_violations.append(list(branches.buffer_depths))

    def ask_once():
        if state["asking"] or state["end"] is not None:
            return

        def answer(end, value):
            state["asking"] = False
            if end is not None:
                state["end"] = end
            else:
                outputs.append(value)

        state["asking"] = True
        merged(None, answer)

    def abort_now():
        if state["end"] is not None:
            return
        box = []
        merged(DONE, lambda end, value: box.append(end))
        # the abort answer is synchronous and terminal
        assert box and not is_error(box[0])
        state["end"] = box[0]

    aborted = False
    for _step in range(40 * (n_values + 1) * (n_branches + 1)):
        if state["end"] is not None:
            break
        if abort_at is not None and len(outputs) >= abort_at:
            abort_now()
            aborted = True
            break
        if rng.random() < 0.5:
            ask_once()
        else:
            rng.choice(relays).release()
        check_depths()

    # Mop-up so every run terminates: keep asking and releasing everything.
    for _step in range(20 * (n_values + 1) * (n_branches + 1)):
        if state["end"] is not None:
            break
        ask_once()
        for relay in relays:
            relay.release()
        check_depths()

    return {
        "inputs": inputs,
        "outputs": outputs,
        "end": state["end"],
        "aborted": aborted,
        "upstream_ends": upstream_ends,
        "buffer_depths": branches.buffer_depths,
        "depth_violations": depth_violations,
    }


COMMON = dict(
    n_values=st.integers(min_value=0, max_value=24),
    n_branches=st.integers(min_value=1, max_value=4),
    max_buffer=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=60, deadline=None)
@given(**COMMON)
def test_split_merge_ordered_is_the_identity(n_values, n_branches, max_buffer, seed):
    run = run_schedule(n_values, n_branches, True, max_buffer, None, seed)
    assert run["end"] is DONE, "the composition must terminate cleanly"
    assert run["outputs"] == run["inputs"]
    assert run["depth_violations"] == []
    assert run["upstream_ends"] == []  # natural end, never aborted


@settings(max_examples=60, deadline=None)
@given(**COMMON)
def test_split_merge_unordered_is_a_permutation(n_values, n_branches, max_buffer, seed):
    run = run_schedule(n_values, n_branches, False, max_buffer, None, seed)
    assert run["end"] is DONE
    # Exactly-once: a permutation of the input, no loss, no duplication.
    assert sorted(run["outputs"]) == run["inputs"]
    assert run["depth_violations"] == []
    assert run["upstream_ends"] == []


@settings(max_examples=60, deadline=None)
@given(
    ordered=st.booleans(),
    abort_at=st.integers(min_value=0, max_value=10),
    **COMMON,
)
def test_abort_points_never_duplicate_or_wedge(
    ordered, abort_at, n_values, n_branches, max_buffer, seed
):
    run = run_schedule(n_values, n_branches, ordered, max_buffer, abort_at, seed)
    assert run["end"] is not None, "the run must terminate"
    assert not is_error(run["end"])
    outputs = run["outputs"]
    if run["aborted"]:
        # Every delivered value is distinct and came from the input ...
        assert len(set(outputs)) == len(outputs)
        assert set(outputs) <= set(run["inputs"])
        if ordered:
            # ... and in ordered mode the delivery is an exact prefix.
            assert outputs == run["inputs"][: len(outputs)]
        # The upstream saw at most one abort (none when it had already been
        # fully read and ended), and the abort cleared every branch buffer.
        assert len(run["upstream_ends"]) <= 1
        assert run["buffer_depths"] == [0] * n_branches
    else:
        # The stream drained before reaching the abort point.
        if ordered:
            assert outputs == run["inputs"]
        else:
            assert sorted(outputs) == run["inputs"]
    assert run["depth_violations"] == []


# ------------------------------------------------------------------ share
class HeldUpstream:
    """An upstream whose reads wait for the test to answer them, checking
    that ``share`` only reads for a parked ask, one read at a time, and
    never once the upstream ended or was aborted."""

    def __init__(self, model):
        self.model = model
        self.pending = None  # the callback of the read in flight
        self.ended = False
        self.aborts = []

    def __call__(self, end, cb):
        if end is not None:
            self.aborts.append(end)
            cb(end, None)
            return
        assert self.pending is None, "a second read while one is in flight"
        assert self.model.parked, "read with no parked ask"
        assert not self.ended and not self.aborts, "read after the end"
        self.pending = cb

    def answer(self, end, value=None):
        cb, self.pending = self.pending, None
        if end is not None:
            self.ended = True
        cb(end, value)


class ShareModel:
    """The oracle: parked asks in arrival order, each answered once."""

    def __init__(self, n_branches):
        self.parked = []       # ask ids, oldest first
        self.branch_of = {}
        self.asking = [None] * n_branches  # the parked ask id per branch
        self.answers = {}      # ask id -> (end, value)
        self.delivered = []    # (branch, value) in delivery order
        self.ids = 0
        self.branches = None
        self.rechain = set()   # branches that ask again from their answer

    def ask(self, branch):
        ask_id = self.ids
        self.ids += 1
        if self.asking[branch] is not None:
            box = []
            self.branches[branch](None, lambda end, value: box.append(end))
            assert len(box) == 1 and isinstance(box[0], ProtocolError)
            return
        self.asking[branch] = ask_id
        self.branch_of[ask_id] = branch
        self.parked.append(ask_id)
        self.branches[branch](None, lambda end, value: self.on_answer(ask_id, end, value))

    def on_answer(self, ask_id, end, value):
        assert ask_id not in self.answers, "an ask answered twice"
        self.answers[ask_id] = (end, value)
        branch = self.branch_of[ask_id]
        if end is None:
            assert self.parked[0] == ask_id, "a value skipped an older ask"
            self.delivered.append((branch, value))
        self.parked.remove(ask_id)
        self.asking[branch] = None
        if end is None and branch in self.rechain:
            self.ask(branch)  # re-entrant: asks again inside its answer


SHARE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["ask", "ask", "ask", "value", "value", "end", "fail", "abort"]),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(
    n_branches=st.integers(min_value=1, max_value=4),
    ops=SHARE_OPS,
    rechain=st.sets(st.integers(min_value=0, max_value=3), max_size=2),
)
def test_share_hands_each_value_to_the_oldest_parked_ask(n_branches, ops, rechain):
    model = ShareModel(n_branches)
    model.rechain = rechain
    upstream = HeldUpstream(model)
    branches = share(upstream, n_branches)
    model.branches = branches
    sent = []
    boom = RuntimeError("upstream failed")
    for op, pick in ops:
        if op == "ask":
            model.ask(pick % n_branches)
        elif op == "abort":
            end = DONE if pick % 2 else RuntimeError("branch failed")
            box = []
            branches[pick % n_branches](end, lambda e, v: box.append(e))
            assert len(box) == 1
        elif upstream.pending is not None:
            # After a branch abort the read in flight still gets its answer:
            # ``share`` drops it.
            if op == "value":
                value = len(sent) if not upstream.aborts else "late"
                if not upstream.aborts:
                    sent.append(value)
                upstream.answer(None, value)
            else:
                upstream.answer(DONE if op == "end" else boom)
        assert branches.buffer_depths == [0] * n_branches
        # Nothing is read unless an ask is parked, and a parked ask always
        # has a read in flight for it while the upstream is open.
        if model.parked and not branches.upstream_ended:
            assert upstream.pending is not None
    # Each value read reached exactly one branch, in the order it was read.
    assert [value for _branch, value in model.delivered] == sent
    assert branches.values_read == len(sent)
    # Close the upstream: every ask still parked is answered, exactly once.
    if upstream.pending is not None:
        upstream.answer(DONE)
    assert model.parked == []
    assert set(model.answers) == set(model.branch_of)
    assert len(upstream.aborts) <= 1
