"""Property-based tests of the split/merge pair (hypothesis).

Randomised executions over random inputs, branch counts, answer
interleavings, buffer caps and abort points, checking on every one of them
that

* ``split`` + ``merge_unordered`` is a **permutation** with exactly-once
  delivery, and each branch receives its round-robin share in input order;
* with ``max_buffer=N`` no branch ever buffers more than N values;
* a downstream abort delivers a distinct subset of the input, aborts the
  upstream at most once, and leaves no buffered value behind.

The asynchrony that generates interesting interleavings comes from a *relay*
inserted between each branch and the joiner: the relay forwards asks
immediately but holds every answer until the randomised driver releases it,
modelling workers that answer at arbitrary times relative to one another.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.pullstream import DONE, is_error, merge_unordered, split, values


class Relay:
    """Asynchronous pass-through: holds each upstream answer until released."""

    def __init__(self, branch):
        self.branch = branch
        self.held = None   # (end, value) answered upstream, not yet released
        self.cb = None     # downstream callback awaiting the release
        self.taken = []    # every value the branch handed over, in order

    def source(self, end, cb):
        if end is not None:
            self.held = None
            self.cb = None
            self.branch(end, cb)
            return
        self.cb = cb
        self.branch(None, self._on_answer)

    def _on_answer(self, end, value):
        if end is None:
            self.taken.append(value)
        self.held = (end, value)

    def release(self):
        if self.held is None or self.cb is None:
            return
        (end, value), self.held = self.held, None
        cb, self.cb = self.cb, None
        cb(end, value)


def run_schedule(n_values, n_branches, max_buffer, abort_at, seed):
    """Run one randomised split/merge execution and return its observations."""
    rng = random.Random(seed)
    inputs = list(range(n_values))
    upstream_ends = []
    read = []
    inner = values(inputs)

    def observed(end, cb):
        if end is not None:
            upstream_ends.append(end)

        def answer(answer_end, value):
            if answer_end is None:
                read.append(value)
            cb(answer_end, value)

        inner(end, answer)

    branches = split(observed, n_branches, max_buffer=max_buffer)
    relays = [Relay(branch) for branch in branches]
    merged = merge_unordered([relay.source for relay in relays])

    outputs = []
    state = {"end": None, "asking": False}
    depth_violations = []

    def check_depths():
        # a value read for a branch and not yet handed over is buffered
        if max_buffer is not None:
            depths = [
                sum(1 for value in read if value % n_branches == index)
                - len(relay.taken)
                for index, relay in enumerate(relays)
            ]
            if any(depth > max_buffer for depth in depths):
                depth_violations.append(depths)

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

    after_end = []
    for branch in branches:
        branch(None, lambda end, value: after_end.append((end, value)))

    return {
        "inputs": inputs,
        "outputs": outputs,
        "end": state["end"],
        "aborted": aborted,
        "upstream_ends": upstream_ends,
        "taken": [relay.taken for relay in relays],
        "after_end": after_end,
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
def test_split_merge_unordered_is_a_permutation(n_values, n_branches, max_buffer, seed):
    run = run_schedule(n_values, n_branches, max_buffer, None, seed)
    assert run["end"] is DONE
    # Exactly-once: a permutation of the input, no loss, no duplication.
    assert sorted(run["outputs"]) == run["inputs"]
    # Round-robin: branch i took the values i, i + n, i + 2n, ... in order.
    for index, taken in enumerate(run["taken"]):
        assert taken == run["inputs"][index::n_branches]
    assert run["depth_violations"] == []
    assert run["upstream_ends"] == []


@settings(max_examples=60, deadline=None)
@given(abort_at=st.integers(min_value=0, max_value=10), **COMMON)
def test_abort_points_never_duplicate_or_wedge(
    abort_at, n_values, n_branches, max_buffer, seed
):
    run = run_schedule(n_values, n_branches, max_buffer, abort_at, seed)
    assert run["end"] is not None, "the run must terminate"
    assert not is_error(run["end"])
    outputs = run["outputs"]
    if run["aborted"]:
        # Every delivered value is distinct and came from the input.
        assert len(set(outputs)) == len(outputs)
        assert set(outputs) <= set(run["inputs"])
        # The upstream saw at most one abort (none when it had already been
        # fully read and ended).
        assert len(run["upstream_ends"]) <= 1
    else:
        # The stream drained before reaching the abort point.
        assert sorted(outputs) == run["inputs"]
    # Nothing stays buffered: every branch answers a later ask with the end.
    assert all(end is DONE for end, _value in run["after_end"])
    assert run["depth_violations"] == []
