"""Backend and device comparisons.

Two families of comparisons live here:

* **personal devices vs. server cores** (paper section 5.5), computed from
  the calibrated device profiles;
* **execution backends** — one synchronous in-process worker vs. the
  process-pool backend — measured on the real host with
  :func:`compare_backends`, quantifying how far the reproduction is from
  "as fast as the hardware allows".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional

from ..devices.profiles import (
    DeviceProfile,
    device_by_name,
)

__all__ = [
    "ComparisonRow",
    "single_core_rate",
    "device_vs_server",
    "cores_needed_to_match",
    "BackendComparison",
    "compare_backends",
    "PoolTransportComparison",
    "compare_pool_transport",
    "large_payload_inputs",
    "UnorderedShardingComparison",
    "compare_unordered_sharding",
    "crypto_search_inputs",
    "ObsOverheadComparison",
    "compare_obs_overhead",
]


@dataclass
class ComparisonRow:
    """One device-vs-server comparison."""

    application: str
    personal_device: str
    personal_single_core: float
    server: str
    server_single_core: float
    #: personal cores needed to match one server core
    cores_to_match: float
    personal_wins_single_core: bool


def single_core_rate(device: DeviceProfile, application: str) -> float:
    """Single-core throughput of *device* for *application*."""
    return device.per_core_rate(application)


def cores_needed_to_match(
    personal: DeviceProfile, server: DeviceProfile, application: str
) -> float:
    """Number of *personal* cores needed to match one *server* core."""
    personal_rate = single_core_rate(personal, application)
    server_rate = single_core_rate(server, application)
    if personal_rate <= 0:
        return float("inf")
    return server_rate / personal_rate


def device_vs_server(
    application: str = "collatz",
    personal_names: Optional[List[str]] = None,
    server_names: Optional[List[str]] = None,
) -> List[ComparisonRow]:
    """Compare recent personal devices against server cores.

    Quantifies the paper's two Table-2 conclusions — "a single core from
    personal devices of 2016 sometimes provides higher throughput than older
    servers" and "2-5 cores on recent personal devices can outperform the
    fastest server core".  Defaults reproduce the paper's examples: iPhone SE
    and MacBook Pro 2016 against the slowest Grid5000 node (``uvb.sophia``),
    the fastest one (``dahu.grenoble``) and a PlanetLab node.
    """
    personal = [
        device_by_name(name)
        for name in (personal_names or ["iphone-se", "mbpro-2016"])
    ]
    servers = [
        device_by_name(name)
        for name in (
            server_names
            or ["uvb.sophia", "dahu.grenoble", "ple42.planet-lab.eu"]
        )
    ]
    rows: List[ComparisonRow] = []
    for personal_device in personal:
        if not personal_device.supports(application):
            continue
        for server in servers:
            if not server.supports(application):
                continue
            personal_rate = single_core_rate(personal_device, application)
            server_rate = single_core_rate(server, application)
            rows.append(
                ComparisonRow(
                    application=application,
                    personal_device=personal_device.name,
                    personal_single_core=personal_rate,
                    server=server.name,
                    server_single_core=server_rate,
                    cores_to_match=cores_needed_to_match(
                        personal_device, server, application
                    ),
                    personal_wins_single_core=personal_rate > server_rate,
                )
            )
    return rows


# --------------------------------------------------------------------------
# Execution backends: in-process worker vs. process pool (measured).
# --------------------------------------------------------------------------


@dataclass
class BackendComparison:
    """Measured wall-clock of the local backend vs. the process pool."""

    workload: str
    values: int
    processes: int
    batch_size: int
    local_seconds: float
    pool_seconds: float
    results_match: bool

    @property
    def speedup(self) -> float:
        """Pool speedup over one synchronous in-process worker."""
        if self.pool_seconds <= 0:
            return float("inf")
        return self.local_seconds / self.pool_seconds


def _node_style_wrapper(fn_ref: Any) -> Callable[[Any, Callable], None]:
    """Adapt any pool function reference to the ``fn(value, cb)`` convention."""
    from ..pool.tasks import expects_callback, resolve_callable

    fn = resolve_callable(fn_ref)
    if expects_callback(fn):
        return fn

    def node_fn(value: Any, cb: Callable) -> None:
        try:
            result = fn(value)
        except Exception as exc:
            cb(exc, None)
            return
        cb(None, result)

    return node_fn


def compare_backends(
    fn_ref: Any,
    inputs: Iterable[Any],
    processes: int = 4,
    batch_size: int = 4,
    window: Optional[int] = None,
    workload: Optional[str] = None,
) -> BackendComparison:
    """Run *inputs* through one local worker, then through a process pool.

    Both runs use the same ``DistributedMap`` composition, so the measured
    difference is purely the execution backend: synchronous single-thread
    application vs. *processes* OS processes fed ``batch_size``-value frames.
    The pool run includes pool start-up, which is the honest number a user
    experiences.
    """
    from ..core.distributed_map import DistributedMap
    from ..pullstream import collect, pull, values

    items = list(inputs)
    node_fn = _node_style_wrapper(fn_ref)

    start = time.perf_counter()
    local_map = DistributedMap(batch_size=max(1, batch_size))
    local_sink = pull(values(items), local_map, collect())
    local_map.add_local_worker(node_fn)
    local_results = local_sink.result()
    local_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pool_map = DistributedMap(batch_size=max(1, batch_size))
    pool_sink = pull(values(items), pool_map, collect())
    try:
        pool_map.add_process_pool(
            fn_ref, processes=processes, batch_size=batch_size, window=window
        )
        pool_map.drive(pool_sink)
        pool_results = pool_sink.result()
    finally:
        pool_map.close()
    pool_seconds = time.perf_counter() - start

    return BackendComparison(
        workload=workload or repr(fn_ref),
        values=len(items),
        processes=processes,
        batch_size=batch_size,
        local_seconds=local_seconds,
        pool_seconds=pool_seconds,
        results_match=local_results == pool_results,
    )


# --------------------------------------------------------------------------
# Pool transports: pickled pipe frames vs. the shared-memory slot ring.
# --------------------------------------------------------------------------


@dataclass
class PoolTransportComparison:
    """Measured wall-clock of one pool topology over two payload transports.

    Both arms are the **same composition** — one unsharded ``DistributedMap``
    with one *processes*-process pool, the same inputs, the same
    ``batch_size`` framing — so the measured difference is purely the data
    plane: every payload pickled through the executor pipe against payload
    bytes moved through :class:`~repro.net.shm_ring.ShmRing` slots with only
    control records on the pipe.  On a no-op workload (``echo``) the whole
    wall-clock *is* transport cost, which makes the ratio the serialization
    lever the roadmap item named.
    """

    workload: str
    values: int
    payload_bytes: int
    processes: int
    batch_size: int
    pipe_seconds: float
    shm_seconds: float
    #: both arms delivered exactly the expected results, in order
    results_match: bool
    #: slots acquired minus released after close, per arm (pipe has no ring,
    #: so its count is structurally zero)
    pipe_slots_leaked: int
    shm_slots_leaked: int
    #: payloads that fell back to the pipe in the shm arm
    shm_fallbacks: int
    #: payload bytes the shm arm moved through slots (both directions)
    shm_bytes_through_ring: int

    @property
    def speedup(self) -> float:
        """Shm-transport throughput over the pipe transport."""
        if self.shm_seconds <= 0:
            return float("inf")
        return self.pipe_seconds / self.shm_seconds


def large_payload_inputs(count: int, payload_bytes: int) -> List[bytes]:
    """Distinct ``bytes`` payloads of *payload_bytes* each.

    Each payload carries its index in the leading bytes, so exactly-once
    checks distinguish every value; the repeated filler keeps construction
    cheap.
    """
    return [
        index.to_bytes(8, "big") + bytes([index % 251]) * (payload_bytes - 8)
        for index in range(count)
    ]


def compare_pool_transport(
    fn_ref: Any = "repro.pool.workloads:echo",
    count: int = 96,
    payload_bytes: int = 2 << 20,
    processes: int = 1,
    batch_size: int = 8,
    window: Optional[int] = None,
    slot_count: Optional[int] = None,
    slot_size: Optional[int] = None,
    repeats: int = 3,
    workload: Optional[str] = None,
) -> PoolTransportComparison:
    """Run large payloads through one pool, pipe transport then shm.

    A single-process pool on a no-op function makes the transport the
    bottleneck by construction.  Each arm runs *repeats* times and reports
    its fastest wall-clock — pool start-up (included in every run) jitters
    by tens of milliseconds on a loaded host, and the minimum is the
    standard estimator for the cost floor a transport imposes.  Every run
    of both arms is checked for exactly-once in-order delivery, and every
    shm run for zero leaked slots after ``close()`` (leaks accumulate into
    ``shm_slots_leaked`` across repeats).  The default ring is sized to the
    payload (``slot_size`` one payload, enough slots for the whole Limiter
    window) so the measurement is not skewed by fallbacks.
    """
    from ..core.distributed_map import DistributedMap
    from ..pullstream import collect, pull, values

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    items = large_payload_inputs(count, payload_bytes)
    if slot_size is None:
        slot_size = max(payload_bytes, 1 << 16)
    if slot_count is None:
        from ..pool import default_window

        frames_in_flight = window if window is not None else default_window(processes)
        slot_count = max(8, frames_in_flight * max(1, batch_size) * 2)
    expected = [run_task_locally(fn_ref, item) for item in items]

    def run_arm(transport: str) -> tuple:
        start = time.perf_counter()
        dmap = DistributedMap(batch_size=max(1, batch_size))
        sink = pull(values(items), dmap, collect())
        try:
            handle = dmap.add_process_pool(
                fn_ref,
                processes=processes,
                batch_size=batch_size,
                window=window,
                transport=transport,
                slot_count=slot_count if transport == "shm" else None,
                slot_size=slot_size if transport == "shm" else None,
            )
            dmap.drive(sink)
            results = sink.result()
        finally:
            dmap.close()
        return time.perf_counter() - start, results, handle.pool.ring

    results_match = True
    pipe_seconds = float("inf")
    for _ in range(repeats):
        seconds, results, _no_ring = run_arm("pipe")
        pipe_seconds = min(pipe_seconds, seconds)
        results_match = results_match and results == expected

    shm_seconds = float("inf")
    slots_leaked = 0
    fallbacks = 0
    bytes_through_ring = 0
    for _ in range(repeats):
        seconds, results, ring = run_arm("shm")
        results_match = results_match and results == expected
        slots_leaked += ring.slots_acquired - ring.slots_released
        if seconds < shm_seconds:
            shm_seconds = seconds
            fallbacks = ring.fallbacks
            bytes_through_ring = ring.bytes_written + ring.bytes_read

    return PoolTransportComparison(
        workload=workload or repr(fn_ref),
        values=len(items),
        payload_bytes=payload_bytes,
        processes=processes,
        batch_size=batch_size,
        pipe_seconds=pipe_seconds,
        shm_seconds=shm_seconds,
        results_match=results_match,
        pipe_slots_leaked=0,
        shm_slots_leaked=slots_leaked,
        shm_fallbacks=fallbacks,
        shm_bytes_through_ring=bytes_through_ring,
    )


def run_task_locally(fn_ref: Any, value: Any) -> Any:
    """Apply a pool function reference in-process (expected-result oracle)."""
    from ..pool.tasks import run_task

    return run_task(fn_ref, value)


# --------------------------------------------------------------------------
# Sharded merge modes: ordered vs. completion-order on the crypto search.
# --------------------------------------------------------------------------


@dataclass
class UnorderedShardingComparison:
    """Time-to-first-hit of an ordered vs. an unordered sharded master.

    Both arms run the same crypto-search inputs on the same topology
    (*shards* process pools of one process each); the only difference is the
    merge: global input order against completion order.  The paper's
    "first answer wins" claim (section 4.2) is the measured quantity —
    ``first_hit_seconds`` is the wall-clock from stream construction (pool
    start-up included) until the attempt containing the valid nonce is
    **delivered downstream**, which in the ordered arm waits behind every
    earlier slow attempt on the sibling shard.
    """

    workload: str
    values: int
    shards: int
    hit_nonce: int
    ordered_seconds: float
    unordered_seconds: float
    ordered_first_hit_seconds: float
    unordered_first_hit_seconds: float
    #: each arm's delivered results are the same multiset (exactly once)
    results_match: bool
    #: each arm delivered the hit exactly once
    hit_exactly_once: bool

    @property
    def first_hit_speedup(self) -> float:
        """Ordered-arm first-hit latency over the unordered arm's."""
        if self.unordered_first_hit_seconds <= 0:
            return float("inf")
        return self.ordered_first_hit_seconds / self.unordered_first_hit_seconds


IMPOSSIBLE_BITS = 192  # a difficulty no 64-bit nonce range will ever meet


def crypto_search_inputs(
    slow_count: int,
    shards: int = 2,
    values: int = 12,
    hit_index: int = 5,
    difficulty_bits: int = 12,
) -> tuple:
    """Build a skewed crypto-search input set and return ``(items, nonce)``.

    Attempts landing on shard 0 (indices ``0 mod shards``) are *slow*:
    *slow_count* nonces checked against an impossible difficulty, so the
    whole range is scanned and no hit is found.  The other shards' attempts
    are tiny no-hit probes, except ``hit_index`` which contains a
    precomputed valid nonce at the real *difficulty_bits*.  An ordered merge
    must therefore deliver every slow attempt before ``hit_index``; a
    completion-order merge delivers the hit as soon as its shard computes
    it.
    """
    from ..apps.crypto import find_valid_nonce

    if not 0 < hit_index < values:
        raise ValueError("hit_index must fall inside the input range")
    if hit_index % shards == 0:
        raise ValueError("hit_index must not land on the slow shard 0")
    block = "pando-unordered-bench"
    nonce = find_valid_nonce(block, difficulty_bits)
    items = []
    for index in range(values):
        if index == hit_index:
            items.append({
                "block": block,
                "start": 0,
                "count": nonce + 1,
                "difficulty_bits": difficulty_bits,
            })
        elif index % shards == 0:
            items.append({
                "block": block,
                "start": 10_000_000 + index * slow_count,
                "count": slow_count,
                "difficulty_bits": IMPOSSIBLE_BITS,
            })
        else:
            items.append({
                "block": block,
                "start": 20_000_000 + index * 256,
                "count": 256,
                "difficulty_bits": IMPOSSIBLE_BITS,
            })
    return items, nonce


def compare_unordered_sharding(
    slow_count: int = 120_000,
    shards: int = 2,
    values: int = 12,
    hit_index: int = 5,
) -> UnorderedShardingComparison:
    """Run the skewed crypto search through both sharded merge modes.

    Each arm attaches one single-process pool per shard and is driven to
    completion (so exactly-once delivery can be checked), recording the
    wall-clock at which the ``found`` result passed downstream.  Pool
    start-up is included in both arms, which is the honest number a user
    experiences.
    """
    from ..core.distributed_map import DistributedMap
    from ..pullstream import collect, pull, tap
    from ..pullstream import values as values_source

    items, nonce = crypto_search_inputs(
        slow_count, shards=shards, values=values, hit_index=hit_index
    )

    def run_arm(ordered: bool) -> tuple:
        start = time.perf_counter()
        first_hit = {"at": None}

        def observe(result: Any) -> None:
            if result.get("found") and first_hit["at"] is None:
                first_hit["at"] = time.perf_counter() - start

        dmap = DistributedMap(ordered=ordered, shards=shards, batch_size=1)
        sink = pull(values_source(items), dmap, tap(observe), collect())
        try:
            for _ in range(shards):
                dmap.add_process_pool(
                    "repro.pool.workloads:search_nonces",
                    processes=1,
                    batch_size=1,
                )
            dmap.drive(sink)
            results = sink.result()
        finally:
            dmap.close()
        return time.perf_counter() - start, first_hit["at"], results

    ordered_seconds, ordered_hit, ordered_results = run_arm(True)
    unordered_seconds, unordered_hit, unordered_results = run_arm(False)

    def key(result: Any) -> str:
        return repr(sorted(result.items()))

    return UnorderedShardingComparison(
        workload="search_nonces",
        values=len(items),
        shards=shards,
        hit_nonce=nonce,
        ordered_seconds=ordered_seconds,
        unordered_seconds=unordered_seconds,
        ordered_first_hit_seconds=ordered_hit if ordered_hit is not None else float("inf"),
        unordered_first_hit_seconds=(
            unordered_hit if unordered_hit is not None else float("inf")
        ),
        results_match=(
            sorted(map(key, ordered_results)) == sorted(map(key, unordered_results))
            and len(ordered_results) == len(items)
        ),
        hit_exactly_once=(
            sum(1 for r in ordered_results if r.get("found")) == 1
            and sum(1 for r in unordered_results if r.get("found")) == 1
        ),
    )


# --------------------------------------------------------------------------
# Observability overhead (metrics/tracing on vs. off)
# --------------------------------------------------------------------------


@dataclass
class ObsOverheadComparison:
    """Wall-clock cost of the observability plane on a no-op pool run."""

    workload: str
    values: int
    payload_bytes: int
    processes: int
    batch_size: int
    metrics_on_seconds: float
    metrics_off_seconds: float
    #: both arms delivered exactly the expected results, in order
    results_match: bool
    #: frames the metrics arm traced end to end (its fastest run)
    frames_traced: int
    #: Prometheus exposition scraped over HTTP after the fastest metrics run
    scrape_text: str

    @property
    def overhead_fraction(self) -> float:
        """Relative slowdown of the metrics arm ((on - off) / off)."""
        if self.metrics_off_seconds <= 0:
            return 0.0
        return (
            self.metrics_on_seconds - self.metrics_off_seconds
        ) / self.metrics_off_seconds


def compare_obs_overhead(
    fn_ref: Any = "repro.pool.workloads:echo",
    count: int = 256,
    payload_bytes: int = 1 << 14,
    processes: int = 2,
    batch_size: int = 8,
    repeats: int = 3,
    workload: Optional[str] = None,
) -> ObsOverheadComparison:
    """Run one pool workload with the observability plane on, then off.

    A no-op function makes the machinery the bottleneck by construction, so
    any per-frame tracing cost shows up directly in wall-clock.  Each arm
    runs *repeats* times and reports its fastest run (pool start-up jitters
    far more than the tracing under test); both arms are checked for
    exactly-once in-order delivery on every run.  After the fastest
    metrics-on run the registry is scraped over a real HTTP endpoint —
    outside the timed window — so callers can assert the exposition carries
    non-zero counters, not just that tracing was cheap.
    """
    import urllib.request

    from ..core.distributed_map import DistributedMap
    from ..pullstream import collect, pull, values

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    items = large_payload_inputs(count, payload_bytes)
    expected = [run_task_locally(fn_ref, item) for item in items]

    def run_arm(metrics: bool) -> tuple:
        start = time.perf_counter()
        dmap = DistributedMap(batch_size=batch_size, metrics=metrics)
        sink = pull(values(items), dmap, collect())
        try:
            dmap.add_process_pool(fn_ref, processes=processes, batch_size=batch_size)
            dmap.drive(sink)
            results = sink.result()
            seconds = time.perf_counter() - start
            frames = 0
            scrape = ""
            if metrics:
                frames = int(dmap.obs.frames.value(transport="pipe"))
                endpoint = dmap.serve_metrics()
                with urllib.request.urlopen(endpoint.url, timeout=5) as response:
                    scrape = response.read().decode("utf-8")
        finally:
            dmap.close()
        return seconds, results, frames, scrape

    results_match = True
    off_seconds = float("inf")
    for _ in range(repeats):
        seconds, results, _frames, _scrape = run_arm(metrics=False)
        off_seconds = min(off_seconds, seconds)
        results_match = results_match and results == expected

    on_seconds = float("inf")
    frames_traced = 0
    scrape_text = ""
    for _ in range(repeats):
        seconds, results, frames, scrape = run_arm(metrics=True)
        results_match = results_match and results == expected
        if seconds < on_seconds:
            on_seconds = seconds
            frames_traced = frames
            scrape_text = scrape

    return ObsOverheadComparison(
        workload=workload or repr(fn_ref),
        values=len(items),
        payload_bytes=payload_bytes,
        processes=processes,
        batch_size=batch_size,
        metrics_on_seconds=on_seconds,
        metrics_off_seconds=off_seconds,
        results_match=results_match,
        frames_traced=frames_traced,
        scrape_text=scrape_text,
    )
