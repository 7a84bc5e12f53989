"""Every call the perf suite makes into ``repro`` goes through this module.

``workloads.py`` and ``replay.py`` import nothing from ``repro`` themselves:
the names below are the suite's whole dependency on the program, so a later
API deletion or rename (ROADMAP items 3a/3b) re-points this one file and the
benchmark keeps measuring the same thing under the same metric names.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

# Re-exported for replay.py (layer-by-layer replay of public functions).
from repro.core.distributed_map import DistributedMap
from repro.core.limiter import Limiter
from repro.core.reorder import ReorderBuffer
from repro.net.serialization import Batch, oob_pack, oob_unpack
from repro.net.shm_ring import ShmRing, pack_frame, unpack_frame
from repro.net.ws_transport import (
    OP_BINARY,
    encode_ws_frame,
    pack_wire_frame,
    unpack_wire_frame,
)
from repro.obs.trace import Observability
from repro.pool.process_pool import ProcessPoolWorker
from repro.pool.tasks import run_batch, run_shm_batch
from repro.pool.workloads import invert_tile, search_nonces
from repro.pullstream import (
    Duplex,
    Pushable,
    batching,
    drain,
    from_iterable,
    map_,
    merge_unordered,
    pull,
    split,
    unbatching,
    values,
)
from repro.sched import EventLoopScheduler
from repro.sim.matrix import run_cell, scale_cell, verify_cell
from repro.sim.scheduler import Scheduler as SimScheduler
from repro.worker import spawn_volunteer_process

SEARCH_NONCES = "repro.pool.workloads:search_nonces"
INVERT_TILE = "repro.pool.workloads:invert_tile"
ECHO = "repro.pool.workloads:echo"

#: wall-clock guard on one drive(); a healthy run never comes near it
DRIVE_TIMEOUT_S = 150.0

Span = Callable[[str], Any]


def family_total(registry_snapshot: Dict[str, Any], family: str) -> float:
    """Sum of a counter family's samples in a ``registry.as_dict()`` snapshot."""
    entry = registry_snapshot.get(family)
    if entry is None:
        return 0.0
    return float(sum(sample.get("value", 0.0) for sample in entry["samples"]))


def histogram_mean(registry_snapshot: Dict[str, Any], family: str) -> float:
    """``sum / count`` across a histogram family's series (0 when empty)."""
    entry = registry_snapshot.get(family)
    if entry is None:
        return 0.0
    count = sum(sample["count"] for sample in entry["samples"])
    total = sum(sample["sum"] for sample in entry["samples"])
    return total / count if count else 0.0


def wait_for_children(timeout: float = 20.0) -> bool:
    """Wait until every child process of this one has been reaped.

    ``ProcessPoolWorker.close()`` shuts its executor down without waiting, so
    the pool's processes exit a moment later; ``RUSAGE_CHILDREN`` only counts
    children that were waited for, and the benchmark contract wants every
    started process ended before the run reports.  Returns False when some
    had to be killed after *timeout* seconds.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return False
        time.sleep(0.01)
    return True


def child_pids() -> List[int]:
    """Pids of this process's direct children, zombies included (from /proc)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ...": comm may hold spaces and ")"
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_all_children(timeout: float = 10.0) -> List[int]:
    """End and reap every process this one still has; call on every way out.

    The program's shared-memory blocks start the standard library's
    ``resource_tracker`` helper, which otherwise lives until a moment *after*
    its parent exited.  It is stopped the way the interpreter stops it
    (closing its pipe), anything else is given *timeout* seconds to finish by
    itself and then killed.  Returns the pids that had to be killed.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    killed: List[int] = []
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid == 0:
            if time.monotonic() > deadline:
                for child in child_pids():
                    if child not in killed:
                        killed.append(child)
                        try:
                            os.kill(child, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
            time.sleep(0.01)


class LiveMap:
    """One ``DistributedMap`` stream opened the way a live workload asks.

    *config* is plain data (see ``workloads.LIVE``): the map's constructor
    arguments, the pools to attach, or the volunteers to serve and spawn.
    *inputs* is the benchmark's stamping generator and *on_result* its
    verifying sink; *span* wraps each call into the program so the traced
    pass records one span per layer boundary.
    """

    def __init__(
        self,
        config: Dict[str, Any],
        inputs: Iterable[Any],
        on_result: Callable[[Any], None],
        metrics: bool,
        span: Span,
    ) -> None:
        self.span = span
        self.gateway: Optional[Any] = None
        self.volunteers: List[Any] = []
        self.spawned_at: List[float] = []
        self.exited_cleanly = True
        with span("DistributedMap"):
            self.dmap = DistributedMap(
                scheduler="asyncio", metrics=metrics, **config["map"]
            )
        self.sink = pull(from_iterable(inputs), self.dmap, drain(on_result))
        try:
            for pool in config.get("pools", ()):
                with span("add_process_pool"):
                    self.dmap.add_process_pool(**pool)
            serve = config.get("serve")
            if serve is not None:
                with span("serve_volunteers"):
                    self.gateway = self.dmap.serve_volunteers(**serve["gateway"])
                for index in range(serve["volunteers"]):
                    with span("spawn_volunteer_process"):
                        # the gateway stamps joins with the loop clock, which
                        # is time.monotonic()
                        self.spawned_at.append(time.monotonic())
                        self.volunteers.append(
                            spawn_volunteer_process(
                                self.gateway.url, name=f"perf-vol-{index}", tabs=1
                            )
                        )
        except BaseException:
            self.close()
            raise

    def all_joined(self) -> bool:
        """True once every spawned volunteer completed its handshake."""
        return self.gateway is None or self.gateway.volunteers_joined >= len(
            self.volunteers
        )

    def drive(self) -> None:
        with self.span("drive"):
            self.dmap.drive(self.sink, timeout=DRIVE_TIMEOUT_S)

    def close(self) -> None:
        """Release the map, then wait for every process it started."""
        with self.span("close"):
            self.dmap.close()
            self.exited_cleanly = wait_for_children()

    def counters(self) -> Dict[str, float]:
        """Counts read from the map after ``close()`` (attributes stay live)."""
        stats = self.dmap.stats.as_dict()
        snapshot = self.dmap.obs.registry.as_dict()

        def total(family: str) -> float:
            return family_total(snapshot, family)

        out = {
            "values_relent": float(stats.get("values_relent", 0)),
            "results_delivered": float(stats.get("results_delivered", 0)),
            "frames": total("pando_pool_tasks_submitted_total")
            + total("pando_ws_frames_sent_total"),
            "pool_tasks_submitted": total("pando_pool_tasks_submitted_total"),
            "shm_slots_acquired": total("pando_shm_slots_acquired_total"),
            "shm_slots_released": total("pando_shm_slots_released_total"),
            "shm_fallbacks": total("pando_shm_fallbacks_total"),
            "shm_bytes": total("pando_shm_bytes_written_total")
            + total("pando_shm_bytes_read_total"),
            "ws_frames": total("pando_ws_frames_sent_total"),
            "ws_bytes": total("pando_ws_bytes_sent_total")
            + total("pando_ws_bytes_received_total"),
            "sched_rounds": total("pando_sched_rounds_total"),
            "sched_wakeups": total("pando_sched_wakeups_total"),
            "sched_stalls": total("pando_sched_stalls_total"),
            "frame_overhead_s": histogram_mean(snapshot, "pando_frame_overhead_seconds"),
            "frame_compute_s": histogram_mean(snapshot, "pando_frame_compute_seconds"),
            "volunteer_join_s": 0.0,
        }
        if self.gateway is not None:
            joins = sorted(record.joined_at for record in self.gateway.registry.records)
            waits = [joined - spawned for joined, spawned in zip(joins, self.spawned_at)]
            out["volunteer_join_s"] = max(waits) if waits else 0.0
        return out

    def faults(self, counts: Dict[str, float]) -> List[str]:
        """Resource-accounting violations (over :meth:`counters`' snapshot
        *counts*) that fail the whole run."""
        found: List[str] = []
        if not self.exited_cleanly:
            found.append("a pool or volunteer process had to be killed")
        if counts["shm_slots_acquired"] != counts["shm_slots_released"]:
            found.append(
                f"shm slots leaked: {counts['shm_slots_acquired']:.0f} acquired, "
                f"{counts['shm_slots_released']:.0f} released"
            )
        if counts["sched_stalls"]:
            found.append(f"scheduler stalls: {counts['sched_stalls']:.0f}")
        if self.gateway is not None:
            expected = len(self.volunteers)
            if self.gateway.volunteers_left != expected:
                found.append(
                    f"volunteers_left={self.gateway.volunteers_left}, expected {expected}"
                )
            if self.gateway.suspicions:
                found.append(f"heartbeat suspicions: {self.gateway.suspicions}")
            for process in self.volunteers:
                if process.exitcode != 0:
                    found.append(f"volunteer {process.name} exit code {process.exitcode}")
        return found


def run_sim_cell(seed: int, volunteers: int, inputs: int, span: Span) -> Dict[str, Any]:
    """One ``run_cell(scale_cell(...))`` with its evidence flattened."""
    started, cpu = time.perf_counter(), time.process_time()
    with span("run_cell"):
        result = run_cell(scale_cell(volunteers=volunteers, inputs=inputs, seed=seed))
    total, cpu = time.perf_counter() - started, time.process_time() - cpu
    with span("verify_cell"):
        errors = list(verify_cell(result))
    return {
        "total_s": total,
        "wall_s": result.wall_seconds,
        "cpu_s": cpu,
        "events": result.events_processed,
        "outputs": len(result.outputs),
        "virtual_makespan_s": result.result.completed_at,
        "errors": errors,
    }
