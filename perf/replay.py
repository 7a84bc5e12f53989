"""Layer replay: each layer's public functions, alone, on the workloads' shapes.

The benchmark may not put spans inside the program, so every layer is also
measured from outside by calling its public entry points in isolation —
single-threaded, after the traced pass, median of ``repeats`` runs each.
The numbers attribute a change in an end-to-end metric to a layer; they are
not gated.  ``CATALOG`` names each metric, its unit and its direction.
"""

from __future__ import annotations

import pickle
import statistics
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List

import adapter

MIB = 1 << 20
TINY = {"block": "pando-perf", "start": 0, "count": 64, "difficulty_bits": 192, "height": 0}

CATALOG = [
    ("pullstream.pull_us_per_value", "us", "lower"),
    ("pullstream.batching_us_per_value", "us", "lower"),
    ("pullstream.split_merge_us_per_value", "us", "lower"),
    ("core.lender.ordered_us_per_value", "us", "lower"),
    ("core.lender.unordered_us_per_value", "us", "lower"),
    ("core.sharding.us_per_value", "us", "lower"),
    ("core.limiter.us_per_value", "us", "lower"),
    ("core.reorder.us_per_value", "us", "lower"),
    ("core.lender.substreams_1000_us_per_value", "us", "lower"),
    ("pool.roundtrip_us_per_frame", "us", "lower"),
    ("pool.roundtrip_shm_us_per_mib", "us/MiB", "lower"),
    ("pool.tasks.run_batch_us_per_frame", "us", "lower"),
    ("pool.tasks.run_shm_batch_us_per_mib", "us/MiB", "lower"),
    ("net.serialization.oob_pack_us_per_mib", "us/MiB", "lower"),
    ("net.serialization.oob_unpack_us_per_mib", "us/MiB", "lower"),
    ("net.serialization.pickle_tiny_us_per_frame", "us", "lower"),
    ("net.shm_ring.pack_frame_us_per_mib", "us/MiB", "lower"),
    ("net.shm_ring.unpack_frame_us_per_mib", "us/MiB", "lower"),
    ("net.shm_ring.acquire_release_us", "us", "lower"),
    ("net.ws_transport.pack_wire_us_per_mib", "us/MiB", "lower"),
    ("net.ws_transport.unpack_wire_us_per_mib", "us/MiB", "lower"),
    ("net.ws_transport.mask_us_per_mib", "us/MiB", "lower"),
    ("net.ws_transport.frame_us_per_mib", "us/MiB", "lower"),
    ("sched.dispatch_us_per_value", "us", "lower"),
    ("sched.wake_latency_us", "us", "lower"),
    ("obs.trace_us_per_frame", "us", "lower"),
    ("obs.scrape_ms", "ms", "lower"),
    ("sim.scheduler_step_us", "us", "lower"),
]


def timed_us(fn: Callable[[], Any], units: float) -> float:
    """Microseconds per unit of one call of *fn* covering *units* units."""
    started = time.perf_counter()
    fn()
    return (time.perf_counter() - started) / units * 1e6


def echo_duplex() -> Any:
    """A duplex that answers every value with itself, synchronously."""
    out = adapter.Pushable()

    def sink(read: Any) -> None:
        adapter.drain(out.push, lambda _end: out.end())(read)

    return adapter.Duplex(source=out, sink=sink)


# -------------------------------------------------------------- pullstream
def pull_chain(n: int) -> float:
    items = [TINY] * n
    return timed_us(
        lambda: adapter.pull(
            adapter.values(items), adapter.map_(lambda v: v), adapter.drain()
        ),
        n,
    )


def batching_chain(n: int) -> float:
    items = [TINY] * n
    return timed_us(
        lambda: adapter.pull(
            adapter.values(items),
            adapter.batching(4),
            adapter.unbatching(),
            adapter.drain(),
        ),
        n,
    )


def split_merge_chain(n: int) -> float:
    items = [TINY] * n

    def run() -> None:
        branches = adapter.split(adapter.values(items), 2, max_buffer=16)
        adapter.pull(adapter.merge_unordered(list(branches)), adapter.drain())

    return timed_us(run, n)


# -------------------------------------------------------------------- core
def local_map(n: int, workers: int, **options: Any) -> float:
    """A ``DistributedMap`` served by in-process echo workers that answer late.

    Each worker parks the value it borrowed; the loop below answers the
    parked values round-robin, so the input spreads over every sub-stream
    (a synchronous worker would drain the stream alone) and an ordered
    lender sees results from alternating workers.
    """
    items = [TINY] * n

    def run() -> None:
        parked: Any = deque()
        dmap = adapter.DistributedMap(metrics=False, **options)
        sink = adapter.pull(adapter.values(items), dmap, adapter.drain())
        for _ in range(workers):
            dmap.add_local_worker(lambda value, cb: parked.append((cb, value)))
        while parked:
            cb, value = parked.popleft()
            cb(None, value)
        if sink.result() != n:
            raise RuntimeError("local map replay lost values")
        dmap.close()

    return timed_us(run, n)


def limiter_chain(n: int) -> float:
    items = [TINY] * n
    return timed_us(
        lambda: adapter.pull(
            adapter.values(items), adapter.Limiter(echo_duplex(), 3), adapter.drain()
        ),
        n,
    )


def reorder_windows(n: int, window: int = 8) -> float:
    def run() -> None:
        buffer = adapter.ReorderBuffer()
        for base in range(0, n, window):
            for index in range(base + window - 1, base - 1, -1):
                buffer.put(index, TINY)
            while buffer.has_ready():
                buffer.pop_ready()

    return timed_us(run, n)


# -------------------------------------------------------------------- pool
def pool_roundtrips(frames: int, repeats: int, frame: Any, units: float, **pool: Any) -> float:
    """Frames through a bare one-process echo pool, one in flight at a time.

    One pool serves all repeats (its spawn is set-up, not round trip): the
    stream is ``repeats + 1`` runs of *frames* frames and the sink stamps
    each run's end; the first run warms the child up and is dropped.
    """
    worker = adapter.ProcessPoolWorker(adapter.ECHO, processes=1, **pool)
    stamps: List[float] = []
    seen = [0]

    def on_frame(_frame: Any) -> None:
        seen[0] += 1
        if seen[0] % frames == 0:
            stamps.append(time.perf_counter())

    try:
        adapter.pull(
            adapter.values([frame] * (frames * (repeats + 1))),
            adapter.Limiter(worker, 1),
            adapter.drain(on_frame),
        )
    finally:
        worker.close()
        adapter.wait_for_children()
    runs = [later - earlier for earlier, later in zip(stamps, stamps[1:])]
    return statistics.median(runs) / (frames * units) * 1e6


def run_batch_inprocess(n: int) -> float:
    frame = [TINY]

    def run() -> None:
        for _ in range(n):
            adapter.run_batch(adapter.ECHO, frame)

    return timed_us(run, n)


def run_shm_batch_inprocess(ring: Any, tiles: List[bytes], n: int) -> float:
    def run() -> None:
        for _ in range(n):
            entries, slots = adapter.pack_frame(ring, tiles)
            adapter.run_shm_batch(adapter.ECHO, ring.name, ring.slot_size, entries, 512)
            ring.release_all(slots)

    def pack_only() -> None:
        for _ in range(n):
            _entries, slots = adapter.pack_frame(ring, tiles)
            ring.release_all(slots)

    mib = n * len(tiles) * len(tiles[0]) / MIB
    return max(0.0, timed_us(run, mib) - timed_us(pack_only, mib))


# --------------------------------------------------------------------- net
def ring_frames(ring: Any, tiles: List[bytes], n: int) -> Dict[str, float]:
    mib = n * len(tiles) * len(tiles[0]) / MIB
    packed = []

    def pack() -> None:
        for _ in range(n):
            packed.append(adapter.pack_frame(ring, tiles))

    def unpack() -> None:
        for entries, _slots in packed:
            adapter.unpack_frame(ring, entries)

    pack_us = timed_us(pack, mib)
    unpack_us = timed_us(unpack, mib)
    for _entries, slots in packed:
        ring.release_all(slots)
    return {"pack": pack_us, "unpack": unpack_us}


def ring_acquire_release(ring: Any, n: int) -> float:
    def run() -> None:
        for _ in range(n):
            ring.release(ring.acquire())

    return timed_us(run, n)


# ------------------------------------------------------------------- sched
def sched_dispatch(n: int) -> float:
    """Values pushed into a port from the loop thread, then dispatched."""
    scheduler = adapter.EventLoopScheduler()
    try:
        port = scheduler.register_pushable()
        sink = adapter.pull(port.pushable, adapter.drain())
        for _ in range(n):
            port.push(TINY)
        port.end()
        return timed_us(lambda: scheduler.run(sink, timeout=60), n)
    finally:
        scheduler.close()


def sched_wake_latency(n: int) -> float:
    """Median time from a second thread's push to the sink seeing the value."""
    scheduler = adapter.EventLoopScheduler()
    consumed = threading.Event()
    latencies: List[float] = []

    def on_value(pushed_at: float) -> None:
        latencies.append(time.perf_counter() - pushed_at)
        consumed.set()

    def produce() -> None:
        for _ in range(n):
            consumed.clear()
            port.push(time.perf_counter())
            consumed.wait(5)
        port.end()

    try:
        port = scheduler.register_pushable()
        sink = adapter.pull(port.pushable, adapter.drain(on_value))
        producer = threading.Thread(target=produce)
        producer.start()
        try:
            scheduler.run(sink, timeout=60)
        finally:
            producer.join(30)
        return statistics.median(latencies) * 1e6
    finally:
        scheduler.close()


# --------------------------------------------------------------------- obs
def obs_frames(obs: Any, n: int) -> float:
    def run() -> None:
        for _ in range(n):
            trace = obs.begin_frame("pipe", values=1)
            obs.end_serialize(trace)
            trace["exec_s"] = 0.0
            obs.observe_frame(trace)

    return timed_us(run, n)


# --------------------------------------------------------------------- sim
def sim_steps(n: int) -> float:
    sim = adapter.SimScheduler()
    for index in range(n):
        sim.call_at(float(index), int)

    def run() -> None:
        while sim.step():
            pass

    return timed_us(run, n)


def run_all(repeats: int = 5, scale: float = 1.0) -> Dict[str, float]:
    """Every replay metric: the median of *repeats* runs at *scale* size."""

    def size(n: int) -> int:
        return max(16, int(n * scale))

    def med(fn: Callable[..., float], *args: Any, **kwargs: Any) -> float:
        return statistics.median(fn(*args, **kwargs) for _ in range(repeats))

    tile = bytes(range(256)) * (MIB // 256)
    tiles = [tile] * 4
    quarter = [tile[: 256 * 1024]] * 2
    quarter_mib = sum(map(len, quarter)) / MIB
    record = {"kind": "data", "seq": 1, "batched": True}
    wire = adapter.pack_wire_frame(record, quarter)
    tiny_batch = adapter.Batch([TINY] * 4)
    view = memoryview(tile)
    out: Dict[str, float] = {}

    out["pullstream.pull_us_per_value"] = med(pull_chain, size(20000))
    out["pullstream.batching_us_per_value"] = med(batching_chain, size(20000))
    out["pullstream.split_merge_us_per_value"] = med(split_merge_chain, size(20000))

    out["core.lender.ordered_us_per_value"] = med(local_map, size(4000), 2, ordered=True)
    out["core.lender.unordered_us_per_value"] = med(local_map, size(4000), 2, ordered=False)
    out["core.sharding.us_per_value"] = med(
        local_map, size(4000), 2, ordered=False, shards=2, split_buffer=16
    )
    out["core.limiter.us_per_value"] = med(limiter_chain, size(10000))
    out["core.reorder.us_per_value"] = med(reorder_windows, size(40000))
    out["core.lender.substreams_1000_us_per_value"] = med(
        local_map, size(3000), size(1000), ordered=False, shards=4
    )

    out["pool.roundtrip_us_per_frame"] = pool_roundtrips(size(300), repeats, TINY, 1.0)
    out["pool.roundtrip_shm_us_per_mib"] = pool_roundtrips(
        size(16),
        repeats,
        adapter.Batch(tiles),
        4.0,
        transport="shm",
        slot_size=MIB,
        slot_count=8,
    )
    out["pool.tasks.run_batch_us_per_frame"] = med(run_batch_inprocess, size(5000))
    with adapter.ShmRing(slot_count=8, slot_size=MIB) as ring:
        out["pool.tasks.run_shm_batch_us_per_mib"] = med(
            run_shm_batch_inprocess, ring, tiles, size(16)
        )
        frames = [ring_frames(ring, tiles, 2) for _ in range(max(repeats, size(12)))]
        out["net.shm_ring.pack_frame_us_per_mib"] = statistics.median(
            frame["pack"] for frame in frames
        )
        out["net.shm_ring.unpack_frame_us_per_mib"] = statistics.median(
            frame["unpack"] for frame in frames
        )
        out["net.shm_ring.acquire_release_us"] = med(ring_acquire_release, ring, size(20000))

    out["net.serialization.oob_pack_us_per_mib"] = med(
        lambda: timed_us(lambda: [adapter.oob_pack(tile) for _ in range(1000)], 1000)
    )
    out["net.serialization.oob_unpack_us_per_mib"] = med(
        lambda: timed_us(
            lambda: [adapter.oob_unpack("raw", view, None) for _ in range(size(40))],
            size(40),
        )
    )
    out["net.serialization.pickle_tiny_us_per_frame"] = med(
        lambda: timed_us(
            lambda: [
                pickle.loads(pickle.dumps(tiny_batch, pickle.HIGHEST_PROTOCOL))
                for _ in range(size(5000))
            ],
            size(5000),
        )
    )

    out["net.ws_transport.pack_wire_us_per_mib"] = med(
        lambda: timed_us(
            lambda: [adapter.pack_wire_frame(record, quarter) for _ in range(size(40))],
            size(40) * quarter_mib,
        )
    )
    out["net.ws_transport.unpack_wire_us_per_mib"] = med(
        lambda: timed_us(
            lambda: [adapter.unpack_wire_frame(wire) for _ in range(size(40))],
            size(40) * quarter_mib,
        )
    )
    for name, mask in (("mask", True), ("frame", False)):
        out[f"net.ws_transport.{name}_us_per_mib"] = med(
            lambda mask=mask: timed_us(
                lambda: [
                    adapter.encode_ws_frame(adapter.OP_BINARY, wire, mask)
                    for _ in range(size(20))
                ],
                size(20) * len(wire) / MIB,
            )
        )

    out["sched.dispatch_us_per_value"] = med(sched_dispatch, size(5000))
    out["sched.wake_latency_us"] = med(sched_wake_latency, size(100))

    obs = adapter.Observability(enabled=True)
    out["obs.trace_us_per_frame"] = med(obs_frames, obs, size(5000))
    out["obs.scrape_ms"] = med(
        lambda: timed_us(obs.registry.render_prometheus, 1.0) / 1e3
    )
    out["sim.scheduler_step_us"] = med(sim_steps, size(20000))
    return out
