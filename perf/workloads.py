"""The five end-to-end workloads: seeded inputs, verifying sinks, timed runs.

Load model (all workloads): **closed loop**.  The master pulls the next input
from the benchmark's generator only when a worker's limiter window has room,
so concurrency is the stated window and a slower program receives less load.
One load-generating process (the master) drives at most two workers or
connections.  ``--seed`` feeds only the input generators below; the program
sees nothing but the generated values.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import adapter

MIB = 1 << 20

#: (name, unit, better, bound) — bound is the share of the baseline median by
#: which the metric may worsen before compare.py calls it a regression.
END_TO_END = [
    ("values_per_s", "values/s", "higher", 0.25),
    ("value_latency_p50_ms", "ms", "lower", 0.25),
    ("value_latency_p95_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
]

#: counts measured by the traced pass of the workload itself; the replay
#: metrics (replay.CATALOG) complete the per-layer list
PASS_LAYER = [
    ("core.master_cpu_us_per_value", "us", "lower"),
    ("core.frames_per_value", "count", "lower"),
    ("core.values_relent", "count", "lower"),
    ("pool.child_cpu_us_per_value", "us", "lower"),
    ("pool.tasks_submitted", "count", "lower"),
    ("net.shm_ring.fallbacks", "count", "lower"),
    ("net.shm_ring.bytes_per_value", "bytes", "lower"),
    ("net.ws_transport.wire_bytes_per_value", "bytes", "lower"),
    ("net.ws_transport.frames_per_value", "count", "lower"),
    ("worker.volunteer.join_s", "s", "lower"),
    ("sched.rounds_per_value", "count", "lower"),
    ("sched.wakeups_per_value", "count", "lower"),
    ("sched.stalls", "count", "lower"),
    ("obs.tracing_overhead_share", "ratio", "lower"),
    ("obs.frame_overhead_us_per_frame", "us", "lower"),
    ("obs.frame_compute_us_per_frame", "us", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.events_per_value", "count", "lower"),
    ("sim.virtual_makespan_s", "s", "lower"),
    ("master.fleet_setup_s", "s", "lower"),
]

#: values per nonce-search attempt, at a difficulty no hash can meet
NONCES_PER_ATTEMPT = 64
IMPOSSIBLE_BITS = 192

LIVE: Dict[str, Dict[str, Any]] = {
    "tiny_ordered": {
        "why": "default ordered path at the smallest value size: per-value "
        "cost in pullstream, lender, limiter, reorder, sched and pool "
        "submit/deliver dominates, payload movement does not",
        "map": dict(ordered=True, batch_size=1),
        "pools": [dict(fn_ref=adapter.SEARCH_NONCES, processes=2)],
        "inputs": "nonces",
        "cold_starts": 9,
    },
    "search_unordered": {
        "why": "paper 4.2 crypto search: the same core layers run unordered, "
        "sharded and batched (split + merge_unordered, two pools), so a lender "
        "gain that costs the unordered path shows here",
        # split_buffer=16 on purpose: with the unbounded default the p50
        # latency flipped between ~3 ms and ~83 ms from run to run
        "map": dict(ordered=False, shards=2, split_buffer=16, batch_size=4),
        "pools": [dict(fn_ref=adapter.SEARCH_NONCES, processes=1)] * 2,
        "inputs": "nonces",
        "cold_starts": 9,
    },
    "tiles_shm": {
        "why": "payload-bound image tiles (paper 4.1) over the shared-memory "
        "ring: shm_ring, oob serialization and the shm half of pool.tasks "
        "dominate, per-value machinery does not",
        "map": dict(ordered=True, batch_size=4),
        "pools": [
            dict(
                fn_ref=adapter.INVERT_TILE,
                processes=1,
                transport="shm",
                slot_size=MIB,
                slot_count=64,
            )
        ],
        "inputs": "tiles",
        "tile_bytes": MIB,
        "cold_starts": 9,
    },
    "ws_tiles": {
        "why": "two real websocket volunteer processes: the only workload "
        "where the wire codec, RFC 6455 framing, gateway, volunteer loop and "
        "heartbeat do the work; p95 is the head-of-line wait of the ordered merge",
        "map": dict(ordered=True, batch_size=2),
        "serve": {
            "gateway": dict(
                fn_ref=adapter.INVERT_TILE,
                heartbeat_interval=0.2,
                heartbeat_timeout=3.0,
            ),
            "volunteers": 2,
        },
        "inputs": "tiles",
        "tile_bytes": 256 * 1024,
        # a volunteer process takes ~0.2 s to start, so fewer of them
        "cold_starts": 5,
    },
}

SIM_FLEET = {
    "why": "1000 simulated volunteers, 3000 inputs, 4 unordered shards in "
    "virtual time: the only workload for sim, master, devices and "
    "net.channel, and core with 1000 short sub-streams",
    "volunteers": 1000,
    "inputs": 3000,
    "min_cells": 5,
}
#: consecutive cells in one segment of a sim_fleet run (see cell_latency_ms)
CELLS_PER_SEGMENT = 3
#: --quick runs this fleet instead (a smoke test, not a measurement)
QUICK_FLEET = {"volunteers": 50, "inputs": 150, "min_cells": 2}

WORKLOADS: Dict[str, str] = {name: spec["why"] for name, spec in LIVE.items()}
WORKLOADS["sim_fleet"] = SIM_FLEET["why"]

#: values in one cold-start mini-stream (setup_s samples)
MINI_STREAM_VALUES = 32
#: a timed window is cut into this many segments of equal value count
SEGMENTS = 20


# ------------------------------------------------------------------ inputs
def nonce_inputs(seed: int) -> Tuple[Callable[[int], Any], Callable[[Any], int]]:
    """Seeded nonce-search attempts and their checker.

    Returns ``(make, check)``: ``make(i)`` builds value *i* (its index rides
    in ``height``, which the program echoes) and ``check(result)`` returns
    the index of a correct result or -1.
    """
    block = f"pando-perf-{seed}"
    base = random.Random(seed).randrange(1 << 32)

    def make(index: int) -> Dict[str, Any]:
        return {
            "block": block,
            "start": base + index * NONCES_PER_ATTEMPT,
            "count": NONCES_PER_ATTEMPT,
            "difficulty_bits": IMPOSSIBLE_BITS,
            "height": index,
        }

    def expected(index: int) -> Dict[str, Any]:
        return {
            "found": False,
            "nonce": None,
            "height": index,
            "hashes": NONCES_PER_ATTEMPT,
        }

    # The closed form above is checked against the program's own function
    # here, outside any timed window, so the sink can compare cheaply.
    for index in (0, 1, 12345):
        if adapter.search_nonces(make(index)) != expected(index):
            raise AssertionError("nonce reference computation disagrees")

    def check(result: Any) -> int:
        index = result.get("height", -1) if isinstance(result, dict) else -1
        return index if isinstance(index, int) and result == expected(index) else -1

    return make, check


def tile_inputs(seed: int, size: int) -> Tuple[Callable[[int], Any], Callable[[Any], int]]:
    """Seeded image tiles of *size* bytes and their checker.

    A tile is its 8-byte index followed by seeded filler; the program must
    answer the byte-wise complement, which the checker compares in full
    (``endswith`` is a memcmp, cheaper than any checksum).
    """
    body = random.Random(seed).randbytes(size - 8)
    inverted_body = adapter.invert_tile(body)
    if inverted_body[:4096] != bytes(255 - byte for byte in body[:4096]):
        raise AssertionError("tile reference computation disagrees")

    def make(index: int) -> bytes:
        return index.to_bytes(8, "big") + body

    def check(result: Any) -> int:
        if (
            not isinstance(result, bytes)
            or len(result) != size
            or not result.endswith(inverted_body)
        ):
            return -1
        return int.from_bytes(result[:8], "big") ^ 0xFFFFFFFFFFFFFFFF

    return make, check


def make_inputs(spec: Dict[str, Any], seed: int):
    if spec["inputs"] == "nonces":
        return nonce_inputs(seed)
    return tile_inputs(seed, spec["tile_bytes"])


# ------------------------------------------------------------------- spans
class SpanLog:
    """In-memory spans around the benchmark's own calls into the program."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add_total(self, name: str, count: int, total_s: float) -> None:
        """A per-value boundary, recorded as one aggregate span."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "workload": self.workload,
                "parent": self._stack[-1] if self._stack else None,
                "count": count,
                "total_s": total_s,
            }
        )


# ------------------------------------------------------------------- stats
def percentile(sorted_values: List[float], q: float) -> float:
    """Quantile *q* of an ascending list, linearly interpolated."""
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def quartile_spread(samples: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / median if median else 0.0


def fast_quartile(samples: List[float], better: str) -> Dict[str, float]:
    """The quartile of *samples* on the better side, and their spread.

    Interference from the host (a noisy neighbour, a frequency dip) only ever
    slows a segment down, never speeds it up, so the value that the best
    quarter of the segments reaches says more about the program than the
    median does: on the reference box it repeats as well as the median in a
    quiet spell and ~20% better in a noisy one.
    """
    ordered = sorted(samples)
    value = percentile(ordered, 0.75 if better == "higher" else 0.25)
    return {"value": value, "spread": quartile_spread(samples)}


# ------------------------------------------------------------ live streams
class Stream:
    """The benchmark's side of one live stream: stamping source, checking sink.

    The source stamps each value when it is yielded and the sink stamps the
    verified result when it arrives; both are matched by the index embedded
    in the value.  With *limit* the source yields that many values; without,
    it yields until *seconds* of timed window (after *warmup* seconds from
    the first result) have elapsed.
    """

    def __init__(
        self,
        make: Callable[[int], Any],
        check: Callable[[Any], int],
        ordered: bool,
        limit: Optional[int] = None,
        warmup: float = 0.0,
        seconds: float = 0.0,
    ) -> None:
        self.make = make
        self.check = check
        self.ordered = ordered
        self.limit = limit
        self.warmup = warmup
        self.seconds = seconds
        # The harness's own memory must not move peak_rss_mib: stamps are
        # kept only while a value is in flight (a window's worth), and each
        # delivery costs 12 bytes.
        self.in_flight: Dict[int, float] = {}
        self.attempted = 0
        self.delivered_at = array("d")
        #: source-to-sink time of each delivery, -1 for a wrong result
        self.latency_ms = array("f")
        self.correct = 0
        #: may the source end?  (open_and_drive points this at the map)
        self.ready: Callable[[], bool] = lambda: True
        self.next_index = 0
        self.stop_at: Optional[float] = None
        #: (results delivered, wall, master cpu) at window start and end
        self.marks: List[Tuple[int, float, float]] = []
        self._mark_at = float("inf")
        self.source_s = 0.0
        self.sink_s = 0.0

    def source(self) -> Iterator[Any]:
        index = 0
        while True:
            began = time.perf_counter()
            if (
                index >= self.limit
                if self.limit is not None
                else self.stop_at is not None and began >= self.stop_at
            ) and self.ready():
                return
            value = self.make(index)
            now = time.perf_counter()
            self.in_flight[index] = now
            self.attempted += 1
            self.source_s += now - began
            yield value
            index += 1

    def on_result(self, result: Any) -> None:
        now = time.perf_counter()
        index = self.check(result)
        # a result counts once: its stamp leaves with the first delivery
        stamp = self.in_flight.pop(index, None)
        if stamp is None:
            index, latency = -1, -1.0
        else:
            latency = (now - stamp) * 1e3
            if not self.ordered or index == self.next_index:
                self.correct += 1
        self.next_index = index + 1
        if not self.delivered_at and self.limit is None:
            self._mark_at = now + self.warmup
            self.stop_at = self._mark_at + self.seconds
        if now >= self._mark_at:
            self.marks.append((len(self.delivered_at), now, time.process_time()))
            self._mark_at = self.stop_at if len(self.marks) == 1 else float("inf")
        self.latency_ms.append(latency)
        self.delivered_at.append(now)
        self.sink_s += time.perf_counter() - now

    def window(self) -> Dict[str, Any]:
        """Throughput and latency over the timed window, by segment."""
        if len(self.marks) < 2:
            # the stream drained before the window closed; close it at the end
            self.marks.append(
                (len(self.delivered_at), time.perf_counter(), time.process_time())
            )
        (first, _t0, cpu0), (last, _t1, cpu1) = self.marks[0], self.marks[1]
        count = last - first
        if count < SEGMENTS * 2:
            raise RuntimeError(f"only {count} results in the timed window; run longer")
        rates, p50s, p95s, p99s = [], [], [], []
        for k in range(SEGMENTS):
            lo, hi = first + k * count // SEGMENTS, first + (k + 1) * count // SEGMENTS
            at = self.delivered_at[lo:hi]
            rates.append((len(at) - 1) / (at[-1] - at[0]))
            lat = sorted(ms for ms in self.latency_ms[lo:hi] if ms >= 0)
            p50s.append(percentile(lat, 0.50))
            p95s.append(percentile(lat, 0.95))
            p99s.append(percentile(lat, 0.99))
        return {
            "values": count,
            "values_per_s": fast_quartile(rates, "higher"),
            "value_latency_p50_ms": fast_quartile(p50s, "lower"),
            "value_latency_p95_ms": fast_quartile(p95s, "lower"),
            "value_latency_p99_ms": statistics.median(p99s),
            "master_cpu_us_per_value": (cpu1 - cpu0) / count * 1e6,
            "segments": {"values_per_s": rates, "p50_ms": p50s, "p95_ms": p95s},
        }


def open_and_drive(
    spec: Dict[str, Any], stream: Stream, metrics: bool, spans: SpanLog
) -> Dict[str, Any]:
    """Open a map for *stream*, drive it dry, close it; return its evidence."""
    started = time.perf_counter()
    live = adapter.LiveMap(spec, stream.source(), stream.on_result, metrics, spans)
    # A stream may not end while a volunteer is still shaking hands: it would
    # be refused by a map that already terminated and exit with an error.
    # (Nothing reads a volunteer-served source before drive() spins.)
    stream.ready = live.all_joined
    try:
        live.drive()
    finally:
        live.close()
    if not stream.delivered_at:
        raise RuntimeError("the stream delivered no result")
    spans.add_total("source_read", stream.attempted, stream.source_s)
    spans.add_total("sink_deliver", len(stream.delivered_at), stream.sink_s)
    counters = live.counters()
    return {
        "setup_s": stream.delivered_at[0] - started,
        "counters": counters,
        "faults": live.faults(counters),
    }


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(
    name: str, seed: int, seconds: float, metrics: bool, spans: SpanLog
) -> Dict[str, Any]:
    """One full-length stream of a live workload, measured."""
    spec = LIVE[name]
    make, check = make_inputs(spec, seed)
    stream = Stream(
        make,
        check,
        ordered=spec["map"]["ordered"],
        warmup=0.1 * seconds,
        seconds=seconds,
    )
    child_cpu = children_cpu_s()
    evidence = open_and_drive(spec, stream, metrics, spans)
    child_cpu = children_cpu_s() - child_cpu
    out = stream.window()
    out.update(evidence)
    out["attempted"] = stream.attempted
    out["correct"] = stream.correct
    out["child_cpu_us_per_value"] = child_cpu / len(stream.delivered_at) * 1e6
    return out


def run_live(
    name: str, seed: int, seconds: float, traced: bool, quick: bool = False
) -> Dict[str, Any]:
    """Run a live workload; returns metrics, counts and the trace detail.

    Untraced: ``cold_starts - 1`` mini-streams (none with *quick*), then one
    timed stream of *seconds*; ``setup_s`` is the median over all of their
    cold starts.
    Traced: an untraced stream and a ``metrics=True`` stream of
    ``seconds / 2`` each, the first giving the master-CPU and the baseline
    for ``obs.tracing_overhead_share``, the second the program's counters.
    """
    spec = LIVE[name]
    spans = SpanLog(name)
    attempted = correct = 0
    faults: List[str] = []
    if not traced:
        setups = []
        make, check = make_inputs(spec, seed)
        for _ in range(0 if quick else spec["cold_starts"] - 1):
            mini = Stream(make, check, spec["map"]["ordered"], limit=MINI_STREAM_VALUES)
            evidence = open_and_drive(spec, mini, False, spans)
            setups.append(evidence["setup_s"])
            faults += evidence["faults"]
            attempted += mini.attempted
            correct += mini.correct
        main = timed_pass(name, seed, seconds, False, spans)
        setups.append(main["setup_s"])
        passes = {"untraced": main}
        metrics = {
            "values_per_s": main["values_per_s"]["value"],
            "value_latency_p50_ms": main["value_latency_p50_ms"]["value"],
            "value_latency_p95_ms": main["value_latency_p95_ms"]["value"],
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_rss_mib(),
        }
        spreads = {
            key: main[key]["spread"]
            for key in ("values_per_s", "value_latency_p50_ms", "value_latency_p95_ms")
        }
    else:
        base = timed_pass(name, seed, seconds / 2, False, spans)
        main = timed_pass(name, seed, seconds / 2, True, spans)
        passes = {"untraced": base, "traced": main}
        counters = main["counters"]
        delivered = max(1.0, counters["results_delivered"])
        untraced_rate = base["values_per_s"]["value"]
        metrics = {layer: 0.0 for layer, _unit, _better in PASS_LAYER}
        metrics.update({
            "core.master_cpu_us_per_value": base["master_cpu_us_per_value"],
            "core.frames_per_value": counters["frames"] / delivered,
            "core.values_relent": counters["values_relent"],
            "pool.child_cpu_us_per_value": base["child_cpu_us_per_value"],
            "pool.tasks_submitted": counters["pool_tasks_submitted"],
            "net.shm_ring.fallbacks": counters["shm_fallbacks"],
            "net.shm_ring.bytes_per_value": counters["shm_bytes"] / delivered,
            "net.ws_transport.wire_bytes_per_value": counters["ws_bytes"] / delivered,
            "net.ws_transport.frames_per_value": counters["ws_frames"] / delivered,
            "worker.volunteer.join_s": counters["volunteer_join_s"],
            "sched.rounds_per_value": counters["sched_rounds"] / delivered,
            "sched.wakeups_per_value": counters["sched_wakeups"] / delivered,
            "sched.stalls": counters["sched_stalls"],
            "obs.tracing_overhead_share": (
                untraced_rate - main["values_per_s"]["value"]
            ) / untraced_rate,
            "obs.frame_overhead_us_per_frame": counters["frame_overhead_s"] * 1e6,
            "obs.frame_compute_us_per_frame": counters["frame_compute_s"] * 1e6,
        })
        spreads = {}
        if counters["values_relent"]:
            faults.append(f"values relent: {counters['values_relent']:.0f}")
        if counters["shm_fallbacks"]:
            faults.append(f"shm fallbacks: {counters['shm_fallbacks']:.0f}")
    for timed in passes.values():
        attempted += timed["attempted"]
        correct += timed["correct"]
        faults += timed["faults"]
    return {
        "metrics": metrics,
        "spreads": spreads,
        "attempted": attempted,
        "failed": attempted if faults else attempted - correct,
        "faults": faults,
        "passes": passes,
        "spans": spans.spans,
    }


# --------------------------------------------------------------- sim fleet
def sim_cells(
    seed: int, seconds: float, fleet: Dict[str, int], spans: SpanLog
) -> List[Dict[str, Any]]:
    """Repeat the fleet cell for *seconds* (at least ``min_cells`` times).

    Every repeat runs the same seeded cell, so its virtual makespan must
    repeat exactly; one extra leading cell warms the interpreter up and is
    dropped.
    """
    volunteers, inputs, min_cells = fleet["volunteers"], fleet["inputs"], fleet["min_cells"]
    cells: List[Dict[str, Any]] = []
    deadline = None
    while True:
        # a thousand volunteers leave a large heap behind: start every cell
        # from the same collector state
        gc.collect()
        cell = adapter.run_sim_cell(seed, volunteers, inputs, spans)
        cell["inputs"] = inputs
        cells.append(cell)
        if deadline is None:
            deadline = time.perf_counter() + seconds
        elif len(cells) > min_cells and time.perf_counter() >= deadline:
            return cells[1:]


def cell_latency_ms(walls: List[float], q: float) -> Dict[str, float]:
    """Quantile *q* of the cell wall times, taken the way a live window takes
    it: per segment of consecutive cells, then the better-side quartile of
    the segments.  All cells do the same work, so the raw tail of their wall
    times is the host's slow spells, not the program (10-seed spread of the
    raw p95: 0.26; by segment: 0.15)."""
    count = max(1, len(walls) // CELLS_PER_SEGMENT)
    per_segment = [
        percentile(sorted(walls[k * len(walls) // count:(k + 1) * len(walls) // count]), q)
        * 1e3
        for k in range(count)
    ]
    return fast_quartile(per_segment, "lower")


def run_sim(seed: int, seconds: float, traced: bool, quick: bool = False) -> Dict[str, Any]:
    """Run ``sim_fleet``.  A "value" for the latency metrics is one cell:
    the simulator materialises its inputs itself, so the benchmark can only
    stamp a deployment going in and its verified result coming out."""
    spans = SpanLog("sim_fleet")
    fleet = QUICK_FLEET if quick else SIM_FLEET
    if traced:
        # run_cell takes no metrics switch: the two halves differ only by
        # which one the overhead share calls "traced"
        halves = [sim_cells(seed, seconds / 2, fleet, spans) for _ in range(2)]
        cells = halves[0] + halves[1]
    else:
        cells = sim_cells(seed, seconds, fleet, spans)
    walls = [cell["wall_s"] for cell in cells]
    setups = [cell["total_s"] - cell["wall_s"] for cell in cells]
    inputs = cells[0]["inputs"]
    faults = [error for cell in cells for error in cell["errors"]]
    makespans = {cell["virtual_makespan_s"] for cell in cells}
    if len(makespans) != 1:
        faults.append(f"virtual makespan did not repeat: {sorted(makespans)}")
    if any(cell["outputs"] != inputs for cell in cells):
        faults.append("a cell delivered the wrong number of outputs")
    if traced:
        rates = [
            inputs / fast_quartile([c["wall_s"] for c in half], "lower")["value"]
            for half in halves
        ]
        metrics = {name: 0.0 for name, _unit, _better in PASS_LAYER}
        metrics.update(
            {
                "core.master_cpu_us_per_value": statistics.median(
                    cell["cpu_s"] for cell in cells
                ) / inputs * 1e6,
                "obs.tracing_overhead_share": (rates[0] - rates[1]) / rates[0],
                "sim.events_per_s": statistics.median(
                    cell["events"] / cell["wall_s"] for cell in cells
                ),
                "sim.events_per_value": cells[0]["events"] / inputs,
                "sim.virtual_makespan_s": cells[0]["virtual_makespan_s"],
                "master.fleet_setup_s": statistics.median(setups),
            }
        )
        spreads = {}
    else:
        metrics = {
            # throughput from the fast quartile of cells, as on live workloads
            "values_per_s": inputs / fast_quartile(walls, "lower")["value"],
            "value_latency_p50_ms": cell_latency_ms(walls, 0.50)["value"],
            "value_latency_p95_ms": cell_latency_ms(walls, 0.95)["value"],
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_rss_mib(),
        }
        spread = quartile_spread(walls)
        spreads = {
            "values_per_s": spread,
            "value_latency_p50_ms": spread,
            "value_latency_p95_ms": spread,
        }
    attempted = inputs * len(cells)
    return {
        "metrics": metrics,
        "spreads": spreads,
        "attempted": attempted,
        "failed": attempted if faults else 0,
        "faults": faults,
        "passes": {"cells": cells},
        "spans": spans.spans,
    }
