"""Fault-injection churn over the shared-memory pool transport.

Mirror of ``tests/sched/test_sched_churn.py`` with the data plane under
test: a **220-worker population** — two process pools running the
shared-memory transport (real OS processes, payloads through
:class:`~repro.net.shm_ring.ShmRing` slots) and 218 driver-backed workers
churning with crash-stop failures — serves one map over binary
tile payloads.  The assertions are the transport's contract under churn:

* exactly-once delivery (global order on the ordered map, a permutation on
  the unordered one) of content-checked inverted tiles;
* zero leaked ring slots after ``close()`` — every slot acquired across
  hundreds of frames, re-lent values and crash-stopped borrows is released;
* both pools actually moved payloads through their rings (the churn did
  not silently starve the transport under test).

The pools run deliberately tiny rings (8 slots), so slot recycling and the
exhaustion fallback are exercised under load, not just in unit tests.
"""

from __future__ import annotations

import pytest

from repro.core.distributed_map import DistributedMap
from repro.pool.workloads import invert_tile
from repro.pullstream import collect, pull, values
from repro.sched import EventLoopScheduler
from repro.sched.sources import EventSource
from repro.sim.failures import ChurnModel

WORKERS = 220
DRIVERS = WORKERS - 2  # two shm pools complete the population
INPUTS = 500
TILE_BYTES = 2048


class DriverStepSource(EventSource):
    """Step the manual sub-stream drivers from the event loop, fairly.

    One dispatch delivers the pending results of exactly one driver
    (rotating), so the driver population shares rounds with the pools
    instead of flushing all at once.
    """

    def __init__(self, drivers):
        self.drivers = drivers
        self._cursor = 0

    def _deliverable(self, driver):
        return not driver.crashed and len(driver.pending_results) > 0

    def ready(self):
        return any(self._deliverable(driver) for driver in self.drivers)

    def dispatch(self):
        count = len(self.drivers)
        for offset in range(count):
            driver = self.drivers[(self._cursor + offset) % count]
            if self._deliverable(driver):
                self._cursor = (self._cursor + offset + 1) % count
                driver.deliver_all()
                return True
        return False

    def live(self):
        return self.ready()


def tile(index: int) -> bytes:
    return (index.to_bytes(4, "big") * (TILE_BYTES // 4))[:TILE_BYTES]


def lend(dmap):
    box = []
    dmap.lender.lend_stream(lambda err, sub: box.append(sub))
    return box[0]


def build_churn_run(dmap, sched, substream_driver, seed=1234):
    """Attach two shm pools and churning drivers to *dmap*."""
    input_values = [tile(index) for index in range(INPUTS)]
    output = pull(values(input_values), dmap, collect())

    # --- two process pools on the shared-memory transport ------------------
    pool_handles = [
        dmap.add_process_pool(
            "repro.pool.workloads:invert_tile",
            processes=1,
            batch_size=1,
            worker_id=f"shm-pool-{index}",
            transport="shm",
            slot_count=8,
            slot_size=4096,
        )
        for index in range(2)
    ]

    # --- 218 churning driver-backed workers --------------------------------
    worker_ids = [f"driver-{index}" for index in range(DRIVERS)]
    churn = ChurnModel(mean_uptime=8.0, seed=seed)
    schedule = churn.schedule_for(worker_ids, horizon=12.0)
    crash_points = {}
    for event in schedule:
        if event.kind == "crash" and event.worker_id not in crash_points:
            crash_points[event.worker_id] = int(event.time)
    survivors = [wid for wid in worker_ids if wid not in crash_points]
    assert survivors, "churn model crashed every worker; adjust parameters"
    assert len(crash_points) >= DRIVERS // 2, "churn should be substantial"

    drivers = []
    for worker_id in worker_ids:
        sub = lend(dmap)
        if worker_id in crash_points:
            driver = substream_driver(
                sub, fn=invert_tile, crash_after=crash_points[worker_id],
                auto_deliver=False,
            )
        else:
            driver = substream_driver(
                sub, fn=invert_tile, auto_deliver=False, max_in_flight=1
            )
        drivers.append(driver.start())

    sched.register(DriverStepSource(drivers))
    return input_values, output, pool_handles


def assert_accounting(dmap):
    total = dmap.stats
    assert total.values_read == INPUTS
    assert total.results_delivered == INPUTS
    assert total.substreams_opened == WORKERS
    assert total.values_lent == INPUTS + total.values_relent
    assert sum(total.lent_per_substream.values()) == total.values_lent
    assert dmap.lender.outstanding == 0
    assert dmap.lender.relendable == 0


def assert_zero_leaked_slots(handle):
    ring = handle.pool.ring
    assert ring.closed  # close() reaped the ring with the executor
    assert ring.slots_acquired == ring.slots_released
    assert ring.in_use == 0


@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
def test_two_shm_pools_survive_churn(substream_driver, ordered):
    sched = EventLoopScheduler()
    dmap = DistributedMap(ordered=ordered, batch_size=1, scheduler=sched)
    try:
        inputs, output, pool_handles = build_churn_run(
            dmap, sched, substream_driver
        )
        dmap.drive(output, timeout=120)

        expected = [invert_tile(value) for value in inputs]
        if ordered:
            # Exactly once, in global input order.
            assert output.result() == expected
        else:
            # Exactly once: a permutation, nothing lost or duplicated.
            assert sorted(output.result()) == sorted(expected)
        assert_accounting(dmap)

        # Both pools moved payloads through their rings under churn.
        for handle in pool_handles:
            assert handle.pool.results_returned > 0
            assert handle.pool.ring.slots_acquired > 0
            assert handle.pool.ring.bytes_read > 0
    finally:
        dmap.close()
        sched.close()
    # Zero leaked slots after close(): the headline leak-proofness claim.
    for handle in pool_handles:
        assert_zero_leaked_slots(handle)
