"""Planet-scale scenario matrix: declarative cells, one runner, one verifier.

The fault-tolerance experiments of the paper (section 5.6) exercise one
deployment shape at a time.  This module turns :class:`DeploymentScenario`
into a *matrix*: a :class:`MatrixCell` declares one point in the cross
product

    {ordered, unordered} x {single, sharded} x {pipe, shm pool | pure sim}

together with the environment that cell runs under — a synthetic volunteer
fleet (LAN/VPN/WAN latency mix, seeded per-device rates), diurnal churn
waves, healing partitions, skewed stragglers, and optionally a
bounded-tail abort (a ``find`` sink plus chunked tasks and a pool
cancellation flag).  :func:`run_cell` executes any cell through a
``SimEventSource`` on the event loop — thousand-volunteer deployments run
in *virtual* time, wall-clock cost is the loop dispatch only — and
:func:`verify_cell` checks the invariants every cell must satisfy:

* **exactly-once delivery** — output ids are a permutation of input ids
  (the input order itself for ordered cells), regardless of churn;
* **stats balance** — the lender counters reconcile with the schedule
  (``values_read``/``results_delivered`` match the input count);
* **trace balance** — rotation-proof trace totals agree with the lender
  counters (``substream_failed`` events vs failed sub-streams,
  ``shard_place`` events vs opened sub-streams on sharded cells);
* **registry balance** — every volunteer incarnation is accounted for
  (joins = registered volunteers, crashes bounded by the schedule);
* **proportional placement** — faster devices processed more items.

``pando simulate --matrix`` (see :func:`main`) runs cells from the shell.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..apps.base import Application, NodeCallback
from ..devices.profiles import DeviceProfile
from ..pullstream import find
from .failures import ChurnModel, FailureSchedule
from .scenario import DeploymentScenario, ScenarioConfig, ScenarioResult

__all__ = [
    "MatrixSearchApplication",
    "matrix_result",
    "matrix_task",
    "make_inputs",
    "synthesize_fleet",
    "MatrixCell",
    "CellResult",
    "DeviceTail",
    "bounded_tail_violations",
    "full_matrix",
    "smoke_matrix",
    "golden_cell",
    "scale_cell",
    "abort_cell",
    "all_cells",
    "run_cell",
    "verify_cell",
    "main",
]

APP_NAME = "matrix_search"


# ============================================================== application
def matrix_result(value: Any) -> Dict[str, Any]:
    """The search result for one (possibly wrapped) matrix input.

    Accepts both the bare input dict and the simulator's wire envelope
    (``{"application", "value", "size_bytes"}``), so the simulated tabs
    and the real process pool produce byte-identical results — the
    exactly-once check cannot tell (and must not care) who computed what.
    """
    inner = value
    if isinstance(inner, dict) and "value" in inner and "id" not in inner:
        inner = inner["value"]
    if not isinstance(inner, dict) or "id" not in inner:
        raise ValueError(f"not a matrix input: {value!r}")
    return {"id": inner["id"], "hit": bool(inner.get("hit", False))}


def matrix_task(value: Any) -> Dict[str, Any]:
    """Process-pool entry point (``repro.sim.matrix:matrix_task``)."""
    return matrix_result(value)


class MatrixSearchApplication(Application):
    """A synthetic crypto-style search: cheap items, rare hits, fat tails.

    Inputs are ``{"id", "cost", "hit"}`` dicts from :func:`make_inputs`;
    the *cost* drives the simulated task duration (skewed items model the
    stragglers of a synchronous search) and *hit* marks the needle a
    ``find`` sink aborts on.
    """

    name = APP_NAME
    unit = "Items/s"
    dataflow = "synchronous-search"
    input_size_bytes = 96
    result_size_bytes = 48

    def generate_inputs(self, count: Optional[int] = None):
        counter = itertools.count() if count is None else range(count)
        for index in counter:
            yield {"id": index, "cost": 1.0, "hit": False}

    def process(self, value: Any, cb: NodeCallback) -> None:
        cb(None, matrix_result(value))

    def cost(self, value: Any) -> float:
        inner = value
        if isinstance(inner, dict) and "value" in inner and "cost" not in inner:
            inner = inner["value"]
        if isinstance(inner, dict):
            return float(inner.get("cost", 1.0))
        return 1.0

    def simulate_result(self, value: Any) -> Any:
        # Identical to the pool's output on purpose — see matrix_result.
        return matrix_result(value)


def make_inputs(
    count: int,
    seed: int = 7,
    base_cost: float = 1.0,
    cost_jitter: float = 0.25,
    hit_ids: Iterable[int] = (),
    skew_ids: Iterable[int] = (),
    skew_factor: float = 25.0,
) -> List[Dict[str, Any]]:
    """Build *count* matrix inputs with seeded cost perturbation.

    Every input costs ``base_cost * (1 + U(0, cost_jitter))``; ids in
    *skew_ids* additionally cost ``skew_factor`` times more (the skewed
    tail of the search), and ids in *hit_ids* carry ``hit=True``.
    """
    rng = random.Random(seed)
    hits = set(hit_ids)
    skewed = set(skew_ids)
    inputs = []
    for index in range(count):
        cost = base_cost * (1.0 + cost_jitter * rng.random())
        if index in skewed:
            cost *= skew_factor
        inputs.append({"id": index, "cost": round(cost, 6), "hit": index in hits})
    return inputs


SETTINGS_CYCLE = ("lan", "vpn", "wan")


def synthesize_fleet(
    count: int,
    seed: int = 11,
    rate_range: Tuple[float, float] = (60.0, 600.0),
    settings: Tuple[str, ...] = SETTINGS_CYCLE,
) -> List[DeviceProfile]:
    """Synthesize *count* single-core volunteer profiles.

    Settings cycle through *settings* — the scenario's ``_wire_links`` then
    gives each device its setting's latency profile, so one fleet mixes LAN
    neighbours with WAN stragglers.  Rates are drawn uniformly from
    *rate_range* with a seeded generator: the fleet is a pure function of
    ``(count, seed)``, which is what makes golden cells pinnable.
    """
    rng = random.Random(seed)
    profiles = []
    for index in range(count):
        setting = settings[index % len(settings)]
        profiles.append(
            DeviceProfile(
                name=f"sim-{index:04d}-{setting}",
                setting=setting,
                cores=1,
                cpu="synthetic",
                year=2019,
                browser="sim",
                rates={APP_NAME: round(rng.uniform(*rate_range), 3)},
            )
        )
    return profiles


# ===================================================================== cells
@dataclass(frozen=True)
class MatrixCell:
    """One point of the scenario matrix, fully declarative."""

    name: str
    ordered: bool = True
    shards: int = 1
    #: process pool transport ("pipe" | "shm"), or None for a pure-sim cell
    pool: Optional[str] = None
    volunteers: int = 6
    inputs: int = 48
    seed: int = 42
    base_cost: float = 1.0
    batch_size: int = 2
    setting: str = "lan"
    heartbeat_interval: float = 2.0
    heartbeat_timeout: float = 8.0
    pool_processes: int = 2
    #: frames poll the pool stop flag every this many values (abort cells)
    cancel_chunk: Optional[int] = None
    #: work units per device execution chunk (bounded-tail cancellation)
    task_chunk: Optional[float] = None
    #: diurnal join/leave waves over part of the fleet
    churn: bool = False
    #: crash-then-heal partition window over part of the fleet
    partition: bool = False
    #: devices slowed by ``straggler_factor`` at t=0
    stragglers: int = 0
    straggler_factor: float = 6.0
    #: ids of skewed (straggler-cost) inputs
    skew_ids: Tuple[int, ...] = ()
    skew_factor: float = 25.0
    #: id of the needle; with ``abort_on_hit`` the sink is find(hit)
    hit_id: Optional[int] = None
    abort_on_hit: bool = False
    #: wall-clock bound on the loop run (None = unbounded)
    timeout: Optional[float] = 120.0
    #: virtual seconds simulated after the sink completes (observe tails)
    drain_for: float = 0.0

    def with_overrides(self, **overrides: Any) -> "MatrixCell":
        return dataclasses.replace(self, **overrides)


@dataclass
class ScheduleInfo:
    """What the failure schedule we built is allowed to cause."""

    schedule: Optional[FailureSchedule]
    straggler_names: List[str] = field(default_factory=list)
    #: every device the schedule touches — excluded from placement checks,
    #: since churned/partitioned/slowed devices under-process by design
    disturbed_names: List[str] = field(default_factory=list)
    scheduled_crashes: int = 0
    scheduled_leaves: int = 0
    scheduled_rejoins: int = 0


@dataclass(frozen=True)
class DeviceTail:
    """Post-abort evidence for one device incarnation.

    ``seconds_per_unit`` is this device's virtual seconds per work unit
    (straggler slowdown included): with chunked tasks, a completion may
    legally trail the abort by at most ``task_chunk * seconds_per_unit``.
    """

    name: str
    last_completion_at: Optional[float]
    seconds_per_unit: float
    tasks_stopped: int


@dataclass
class CellResult:
    """Everything :func:`verify_cell` needs about one executed cell."""

    cell: MatrixCell
    inputs: List[Dict[str, Any]]
    result: ScenarioResult
    aborted: bool
    aborted_virtual: Optional[float]
    trace_counts: Dict[str, int]
    schedule_info: ScheduleInfo
    pool_worker_ids: List[str]
    device_names: Dict[str, float]  # profile name -> rate
    tails: List[DeviceTail]
    wall_seconds: float
    events_processed: int

    @property
    def outputs(self) -> List[Any]:
        return self.result.outputs or []


def full_matrix(volunteers: int = 6, inputs: int = 48, seed: int = 42) -> List[MatrixCell]:
    """The 8-cell {ordered} x {shards} x {transport} grid, churned.

    Every grid cell runs the same environment — a heterogeneous fleet with
    one churn wave, a healing partition and a straggler — so the axes are
    the only thing that varies between cells.
    """
    cells = []
    for ordered, shards, transport in itertools.product(
        (True, False), (1, 3), ("pipe", "shm")
    ):
        order_label = "ordered" if ordered else "unordered"
        shard_label = "sharded" if shards > 1 else "single"
        cells.append(
            MatrixCell(
                name=f"{order_label}-{shard_label}-{transport}",
                ordered=ordered,
                shards=shards,
                pool=transport,
                volunteers=volunteers,
                inputs=inputs,
                seed=seed,
                base_cost=400.0,
                churn=True,
                partition=True,
                stragglers=1,
            )
        )
    return cells


def smoke_matrix() -> List[MatrixCell]:
    """The tier-1 subset: opposite corners of the grid."""
    by_name = {cell.name: cell for cell in full_matrix()}
    return [by_name["ordered-single-pipe"], by_name["unordered-sharded-shm"]]


def golden_cell() -> MatrixCell:
    """Pure-sim, fixed-seed cell whose placement and stats tests pin."""
    return MatrixCell(
        name="golden",
        ordered=True,
        shards=1,
        pool=None,
        volunteers=4,
        inputs=32,
        seed=2027,
        base_cost=50.0,
        heartbeat_interval=5.0,
        heartbeat_timeout=20.0,
    )


def scale_cell(volunteers: int = 1000, inputs: int = 3000, seed: int = 9001) -> MatrixCell:
    """The planet-scale cell: >= 1000 volunteers, pure virtual time.

    Heartbeats dominate event counts at this scale, so the interval is
    raised — membership is still heartbeat-driven, just coarser.
    """
    return MatrixCell(
        name=f"scale-{volunteers}",
        ordered=False,
        shards=4,
        pool=None,
        volunteers=volunteers,
        inputs=inputs,
        seed=seed,
        base_cost=20.0,
        heartbeat_interval=30.0,
        heartbeat_timeout=120.0,
        timeout=None,
    )


def abort_cell(seed: int = 1303) -> MatrixCell:
    """The skewed crypto-search cell: find() aborts, tails must be bounded.

    A handful of early inputs cost ``skew_factor`` more (the straggling
    searches); the needle sits mid-stream, so the abort fans out while the
    skewed tasks are still running.  ``task_chunk`` bounds the simulated
    devices' tails; the cell is pure-sim so the skewed work provably lands
    on the devices (the live pool's tail bound has its own test against
    ``cancel_chunk``).  ``drain_for`` is generous on purpose: an *unbounded*
    tail — the ``task_chunk=None`` comparison — must remain observable.
    """
    return MatrixCell(
        name="abort-skew",
        ordered=False,
        shards=1,
        pool=None,
        volunteers=5,
        inputs=60,
        seed=seed,
        base_cost=100.0,
        skew_ids=(0, 1, 2),
        skew_factor=50.0,
        hit_id=25,
        abort_on_hit=True,
        task_chunk=250.0,
        stragglers=1,
        straggler_factor=4.0,
        drain_for=300.0,
    )


def all_cells() -> Dict[str, MatrixCell]:
    """Every named cell, for the CLI and the full CI matrix."""
    cells = {cell.name: cell for cell in full_matrix()}
    for cell in (golden_cell(), scale_cell(), abort_cell()):
        cells[cell.name] = cell
    return cells


# ==================================================================== runner
def build_schedule(cell: MatrixCell, profiles: List[DeviceProfile]) -> ScheduleInfo:
    """Derive the cell's failure schedule from its declarative knobs.

    Churn, partition and straggler populations are disjoint slices of the
    fleet so the placement check can exclude exactly the perturbed devices.
    """
    info = ScheduleInfo(schedule=None)
    if not (cell.churn or cell.partition or cell.stragglers):
        return info
    names = [profile.name for profile in profiles]
    third = max(1, len(names) // 3)
    churn_names = names[:third]
    partition_names = names[third : 2 * third]
    straggler_pool = names[2 * third :] or names
    model = ChurnModel(mean_uptime=20.0, seed=cell.seed)
    schedule = FailureSchedule()
    if cell.churn:
        schedule.extend(
            model.waves(
                churn_names,
                horizon=40.0,
                period=16.0,
                duty=0.4,
                jitter=1.0,
                participation=0.9,
            )
        )
    if cell.partition:
        schedule.extend(model.partitions(partition_names, [(10.0, 18.0)]))
    if cell.stragglers:
        count = min(cell.stragglers, len(straggler_pool))
        slowdowns = model.stragglers(
            straggler_pool, time=0.0, factor=cell.straggler_factor, count=count
        )
        info.straggler_names = sorted(
            event.worker_id for event in slowdowns
        )
        schedule.extend(slowdowns)
    # Replay the scenario's departed-set logic to bound what may happen.
    departed: set = set()
    for event in schedule:
        if event.kind == "crash":
            info.scheduled_crashes += 1
            departed.add(event.worker_id)
        elif event.kind == "leave":
            info.scheduled_leaves += 1
            departed.add(event.worker_id)
        elif event.kind == "join" and event.worker_id in departed:
            info.scheduled_rejoins += 1
    info.disturbed_names = sorted({event.worker_id for event in schedule})
    info.schedule = schedule
    return info


def run_cell(cell: MatrixCell) -> CellResult:
    """Execute one cell on a fresh event loop and collect its evidence."""
    app = MatrixSearchApplication()
    profiles = synthesize_fleet(cell.volunteers, seed=cell.seed)
    inputs = make_inputs(
        cell.inputs,
        seed=cell.seed,
        base_cost=cell.base_cost,
        hit_ids=() if cell.hit_id is None else (cell.hit_id,),
        skew_ids=cell.skew_ids,
        skew_factor=cell.skew_factor,
    )
    info = build_schedule(cell, profiles)
    config = ScenarioConfig(
        application=app,
        setting=cell.setting,
        devices=profiles,
        batch_size=cell.batch_size,
        transport="websocket",
        ordered=cell.ordered,
        heartbeat_interval=cell.heartbeat_interval,
        heartbeat_timeout=cell.heartbeat_timeout,
        failure_schedule=info.schedule,
        seed=cell.seed,
        shards=cell.shards,
        task_chunk=cell.task_chunk,
    )
    scenario = DeploymentScenario(config)
    dmap = scenario.dmap
    try:
        pool_ids: List[str] = []
        if cell.pool is not None:
            handle = dmap.add_process_pool(
                "repro.sim.matrix:matrix_task",
                processes=cell.pool_processes,
                transport=cell.pool,
                worker_id=f"pool-{cell.pool}",
                cancel_chunk=cell.cancel_chunk,
            )
            pool_ids.append(handle.worker_id)
        sink = (
            find(lambda result: bool(result.get("hit")))
            if cell.abort_on_hit
            else None
        )
        started = time.perf_counter()
        sink_result = scenario.run_on_loop(
            inputs,
            sink=sink,
            timeout=cell.timeout,
            drain_for=cell.drain_for,
        )
        wall = time.perf_counter() - started
        result = scenario.scenario_result(sink_result)
        return CellResult(
            cell=cell,
            inputs=inputs,
            result=result,
            aborted=bool(sink_result.aborted),
            aborted_virtual=scenario.aborted_virtual,
            trace_counts=dmap.obs.trace.counts(),
            schedule_info=info,
            pool_worker_ids=pool_ids,
            device_names={profile.name: profile.rate(APP_NAME) for profile in profiles},
            tails=[
                DeviceTail(
                    name=volunteer.device.name,
                    last_completion_at=volunteer.device.last_completion_at,
                    seconds_per_unit=volunteer.device.task_duration(APP_NAME, 1.0),
                    tasks_stopped=volunteer.device.tasks_stopped,
                )
                for volunteer in scenario.incarnations
            ],
            wall_seconds=wall,
            events_processed=scenario.scheduler.events_processed,
        )
    finally:
        dmap.close()


# ================================================================== verifier
def _items_per_device(
    cell_result: CellResult,
) -> Dict[str, int]:
    """Fold per-worker items onto base device names.

    Worker ids look like ``sim-0003-vpn#0`` (tab) with rejoin incarnations
    suffixed ``sim-0003-vpn+2#0``; the pool worker is excluded.
    """
    per_device: Dict[str, int] = {}
    report = cell_result.result.report
    if report is None:
        return per_device
    for worker_id, items in report.per_worker_items.items():
        if worker_id in cell_result.pool_worker_ids:
            continue
        device = worker_id.split("#", 1)[0].split("+", 1)[0]
        if device in cell_result.device_names:
            per_device[device] = per_device.get(device, 0) + items
    return per_device


def verify_cell(cell_result: CellResult) -> List[str]:
    """Check every matrix invariant; return the violations (empty = pass)."""
    violations: List[str] = []
    cell = cell_result.cell
    stats = cell_result.result.lender_stats
    expected_ids = [value["id"] for value in cell_result.inputs]
    output_ids = [result["id"] for result in cell_result.outputs]

    # ------------------------------------------------ exactly-once delivery
    if cell.abort_on_hit:
        if not cell_result.aborted:
            violations.append("abort cell completed without aborting")
        elif not (len(output_ids) == 1 and cell_result.outputs[0]["hit"]):
            violations.append(
                f"find sink delivered {cell_result.outputs!r}, expected the hit"
            )
        elif cell.task_chunk is not None:
            violations.extend(bounded_tail_violations(cell_result))
    else:
        if sorted(output_ids) != sorted(expected_ids):
            missing = set(expected_ids) - set(output_ids)
            extra = [i for i in output_ids if output_ids.count(i) > 1]
            violations.append(
                f"exactly-once broken: {len(output_ids)}/{len(expected_ids)} "
                f"delivered, missing={sorted(missing)[:5]} dup={sorted(set(extra))[:5]}"
            )
        if cell.ordered and output_ids != expected_ids:
            violations.append("ordered cell delivered outputs out of input order")

        # --------------------------------------------------- stats balance
        if stats["values_read"] != len(expected_ids):
            violations.append(
                f"values_read={stats['values_read']} != inputs={len(expected_ids)}"
            )
        if stats["results_delivered"] != len(expected_ids):
            violations.append(
                f"results_delivered={stats['results_delivered']} "
                f"!= inputs={len(expected_ids)}"
            )
        if stats["values_lent"] - stats["values_relent"] != len(expected_ids):
            violations.append(
                "lent/relent imbalance: "
                f"{stats['values_lent']} - {stats['values_relent']} "
                f"!= {len(expected_ids)}"
            )

    # ------------------------------------------------------- trace balance
    counts = cell_result.trace_counts
    if counts.get("substream_failed", 0) != stats["substreams_failed"]:
        violations.append(
            f"trace substream_failed={counts.get('substream_failed', 0)} "
            f"!= stats substreams_failed={stats['substreams_failed']}"
        )
    if cell.shards > 1 and counts.get("shard_place", 0) != stats["substreams_opened"]:
        violations.append(
            f"trace shard_place={counts.get('shard_place', 0)} "
            f"!= substreams_opened={stats['substreams_opened']}"
        )

    # ---------------------------------------------------- registry balance
    registry = cell_result.result.registry
    info = cell_result.schedule_info
    if registry["volunteers"] != registry["joins"]:
        violations.append(
            f"registry volunteers={registry['volunteers']} != joins={registry['joins']}"
        )
    # On pool cells the fleet lower bound is not deterministic: the pool
    # runs on wall clock while the volunteers join in virtual time, so the
    # whole stream can complete before some (or any) of the fleet connects
    # — the master then turns the late arrivals away.  Pure-sim cells have
    # no such race: every volunteer must register.
    joins_floor = 0 if cell.pool else cell.volunteers
    if not (
        joins_floor
        <= registry["joins"]
        <= cell.volunteers + info.scheduled_rejoins
    ):
        violations.append(
            f"joins={registry['joins']} outside "
            f"[{joins_floor}, {cell.volunteers + info.scheduled_rejoins}]"
        )
    # A scheduled *leave* can still register as a crash when it lands while
    # the channel is connecting (the tab goes silent before it ever opens),
    # so crashes are bounded by all scheduled departures, not crashes alone.
    departures = info.scheduled_crashes + info.scheduled_leaves
    if registry["crashes"] > departures:
        violations.append(
            f"crashes={registry['crashes']} > scheduled departures={departures}"
        )
    if registry["crashes"] + registry["leaves"] > registry["joins"]:
        violations.append("crashes + leaves exceed joins")

    # ---------------------------------------------- proportional placement
    if not cell.abort_on_hit:
        per_device = _items_per_device(cell_result)
        excluded = set(cell_result.schedule_info.disturbed_names)
        rated = sorted(
            (
                (cell_result.device_names[name], per_device.get(name, 0))
                for name in cell_result.device_names
                if name not in excluded
            ),
        )
        quartile = len(rated) // 4
        total_items = sum(items for _rate, items in rated)
        if quartile >= 1 and total_items >= 4 * len(rated):
            slow = rated[:quartile]
            fast = rated[-quartile:]
            slow_mean = sum(items for _r, items in slow) / len(slow)
            fast_mean = sum(items for _r, items in fast) / len(fast)
            if fast_mean < slow_mean:
                violations.append(
                    "placement not proportional: fastest quartile mean "
                    f"{fast_mean:.1f} < slowest quartile mean {slow_mean:.1f}"
                )
    return violations


def bounded_tail_violations(
    cell_result: CellResult, task_chunk: Optional[float] = None
) -> List[str]:
    """Devices that completed work later than one chunk past the abort.

    One chunk of at most *task_chunk* work units (default: the cell's own)
    may still be in flight when the abort fans out; anything later means
    the cancellation tail is unbounded.  The per-device limit folds in the
    calibrated rate and any straggler slowdown via ``seconds_per_unit``.
    """
    if cell_result.aborted_virtual is None:
        raise ValueError("bounded_tail_violations needs an aborted cell")
    chunk = task_chunk if task_chunk is not None else cell_result.cell.task_chunk
    if chunk is None:
        raise ValueError("bounded_tail_violations needs a task_chunk")
    violations = []
    for tail in cell_result.tails:
        if tail.last_completion_at is None:
            continue
        limit = cell_result.aborted_virtual + chunk * tail.seconds_per_unit + 1e-6
        if tail.last_completion_at > limit:
            violations.append(
                f"{tail.name} completed at {tail.last_completion_at:.3f}, "
                f"more than one chunk past the abort "
                f"(limit {limit:.3f}, aborted {cell_result.aborted_virtual:.3f})"
            )
    return violations


# ======================================================================= CLI
def main(argv: Optional[List[str]] = None) -> int:
    """``pando simulate --matrix`` — run scenario-matrix cells."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pando simulate",
        description="Run planet-scale scenario-matrix cells in virtual time.",
    )
    parser.add_argument(
        "--matrix", action="store_true", help="run scenario-matrix cells"
    )
    parser.add_argument("--cell", help="run one named cell (see --list)")
    parser.add_argument(
        "--full", action="store_true", help="run every cell (default: smoke subset)"
    )
    parser.add_argument("--list", action="store_true", help="list cell names")
    parser.add_argument("--volunteers", type=int, help="override the fleet size")
    parser.add_argument("--inputs", type=int, help="override the input count")
    parser.add_argument("--seed", type=int, help="override the cell seed")
    parser.add_argument("--json", action="store_true", help="emit JSON lines")
    args = parser.parse_args(argv)

    if not args.matrix:
        parser.error("only --matrix mode is implemented; pass --matrix")
    catalogue = all_cells()
    if args.list:
        for name in sorted(catalogue):
            print(name)
        return 0
    if args.cell is not None:
        try:
            cells = [catalogue[args.cell]]
        except KeyError:
            parser.error(
                f"unknown cell {args.cell!r}; known: {sorted(catalogue)}"
            )
    elif args.full:
        cells = list(catalogue.values())
    else:
        cells = smoke_matrix()

    overrides: Dict[str, Any] = {}
    if args.volunteers is not None:
        overrides["volunteers"] = args.volunteers
    if args.inputs is not None:
        overrides["inputs"] = args.inputs
    if args.seed is not None:
        overrides["seed"] = args.seed

    failures = 0
    for cell in cells:
        cell = cell.with_overrides(**overrides) if overrides else cell
        cell_result = run_cell(cell)
        violations = verify_cell(cell_result)
        failures += bool(violations)
        summary = {
            "cell": cell.name,
            "seed": cell.seed,
            "volunteers": cell.volunteers,
            "outputs": len(cell_result.outputs),
            "aborted": cell_result.aborted,
            "virtual_s": cell_result.result.completed_at,
            "wall_s": round(cell_result.wall_seconds, 3),
            "events": cell_result.events_processed,
            "violations": violations,
        }
        if args.json:
            print(json.dumps(summary))
        else:
            status = "FAIL" if violations else "ok"
            print(
                f"[{status}] {cell.name}: {summary['outputs']} output(s), "
                f"virtual={summary['virtual_s']}, wall={summary['wall_s']}s, "
                f"events={summary['events']}"
            )
            for violation in violations:
                print(f"       - {violation}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    sys.exit(main())
