"""StreamLender random testing (paper section 4.1, "SL test").

The paper uses Pando itself to test Pando: each input is a random-number
seed; the worker performs a randomised execution of StreamLender — random
numbers of sub-streams, random interleavings of borrows, results, crashes and
aborts — while a protocol checker watches for violations of the pull-stream
invariants, and reports whether the execution was correct.  The authors
credit this application with finding three corner-case bugs and then scaling
to millions of executions.

One streamed value carries ``ops_per_value`` random executions.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Optional

from ..core.lender import StreamLender, UnorderedStreamLender
from ..pullstream import collect, eager_pump, pull, values
from ..pullstream.protocol import DONE, check_protocol
from .base import Application, NodeCallback, registry

__all__ = ["LenderTestApplication", "run_random_execution"]


def run_random_execution(seed: int, ordered: bool = True) -> Dict[str, Any]:
    """Run one randomised StreamLender execution and check its invariants.

    Returns a dict with ``ok`` plus diagnostic counters.  The invariants
    checked are the ones Table 1 promises:

    * every input value is eventually delivered exactly once (no loss, no
      duplication) as long as at least one sub-stream survives;
    * with the ordered variant, outputs appear in input order;
    * the pull-stream protocol is never violated on the output.
    """
    rng = random.Random(seed)
    n_values = rng.randint(0, 30)
    n_subs = rng.randint(1, 5)
    inputs = list(range(n_values))

    lender = StreamLender() if ordered else UnorderedStreamLender()
    source = check_protocol(values(inputs), name=f"exec-{seed}-input")
    output = pull(source, lender, collect())

    subs = []
    for _ in range(n_subs):
        lender.lend_stream(lambda err, sub: subs.append(sub) if err is None else None)

    # Each live sub-stream processes values one at a time; some crash midway.
    crash_after = {
        sub.id: (rng.randint(0, 5) if rng.random() < 0.4 else None) for sub in subs
    }
    processed_counts = {sub.id: 0 for sub in subs}

    def drive(sub) -> None:
        limit = crash_after[sub.id]

        def borrowed(value) -> None:
            processed_counts[sub.id] += 1
            results_to_send.setdefault(sub.id, []).append(value * 2)

        def crashed() -> Optional[Any]:
            # Crash-stop: abort the borrow stream, never answer again.
            if limit is not None and processed_counts[sub.id] >= limit:
                return DONE
            return None

        eager_pump(sub.source, borrowed, lambda _end: None, crashed)

    results_to_send: Dict[int, List[int]] = {}
    # Interleave: drive sub-streams in random order, then deliver results.
    order = list(subs)
    rng.shuffle(order)
    for sub in order:
        drive(sub)
    for sub in subs:
        outputs = results_to_send.get(sub.id, [])
        if crash_after[sub.id] is not None and crash_after[sub.id] <= len(outputs):
            # The crashing sub-stream never sends its results.
            continue
        sub.sink(values(list(outputs)))

    # At least one surviving sub-stream must mop up re-lent values.  The
    # survivor streams its results back incrementally (through a pushable)
    # because the lender only terminates the borrow stream once every result
    # has been delivered.
    survivor_ids = {sub.id for sub in subs if crash_after[sub.id] is None}
    if not survivor_ids and n_values > 0:
        from ..pullstream import pushable

        lender.lend_stream(lambda err, sub: None if err else subs.append(sub))
        survivor = subs[-1]
        survivor_results = pushable()
        survivor.sink(survivor_results)

        eager_pump(
            survivor.source,
            lambda value: survivor_results.push(value * 2),
            lambda _end: survivor_results.end(),
        )

    ok = output.done
    delivered = list(output.value or []) if output.done else []
    expected = [v * 2 for v in inputs]
    if ok and ordered:
        ok = delivered == expected
    elif ok:
        ok = sorted(delivered) == sorted(expected)
    return {
        "ok": bool(ok),
        "values": n_values,
        "substreams": n_subs,
        "delivered": len(delivered),
        "seed": seed,
    }


class LenderTestApplication(Application):
    """Randomised testing of StreamLender, distributed through Pando."""

    name = "lender_test"
    unit = "Tests/s"
    ops_per_value = 50.0
    input_size_bytes = 64
    result_size_bytes = 64
    dataflow = "pipeline"

    def __init__(self, executions_per_value: Optional[int] = None, base_seed: int = 0) -> None:
        self.base_seed = base_seed
        if executions_per_value is not None:
            self.ops_per_value = float(executions_per_value)

    def generate_inputs(self, count: Optional[int] = None) -> Iterator[Any]:
        batch = int(self.ops_per_value)
        index = 0
        while count is None or index < count:
            yield {"seed": self.base_seed + index * batch, "count": batch}
            index += 1

    def process(self, value: Any, cb: NodeCallback) -> None:
        try:
            spec = self._unwrap(value)
            seed, count = int(spec["seed"]), int(spec["count"])
            failures = []
            for offset in range(count):
                outcome = run_random_execution(seed + offset)
                if not outcome["ok"]:
                    failures.append(outcome)
            result = {"executions": count, "failures": failures, "ok": not failures}
        except Exception as exc:
            cb(exc, None)
            return
        cb(None, result)

    def cost(self, value: Any) -> float:
        spec = self._unwrap(value)
        return float(spec.get("count", self.ops_per_value))

    def simulate_result(self, value: Any) -> Any:
        spec = self._unwrap(value)
        return {
            "executions": spec.get("count", int(self.ops_per_value)),
            "failures": [],
            "ok": True,
            "size_bytes": self.result_size_bytes,
            "simulated": True,
        }

    def verify_result(self, value: Any, result: Any) -> bool:
        return isinstance(result, dict) and "ok" in result

    @staticmethod
    def _unwrap(value: Any) -> dict:
        if isinstance(value, dict) and "value" in value and "application" in value:
            return value["value"]
        return value


registry.register("lender_test", LenderTestApplication)
