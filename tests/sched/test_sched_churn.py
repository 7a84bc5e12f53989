"""Fault-injection churn with heterogeneous sources on one event loop.

One lender with the event-loop scheduler in the driver's seat and a
**mixed population of 220 workers**: two process
pools (real OS processes, futures completing on executor threads), one
simulated network channel (frames delivered through a virtual-time
scheduler stepped on the loop), and 217 driver-backed workers churning with
crash-stop failures.  The test asserts that exactly-once delivery, the
lender's accounting invariants, and the participation of every transport
survive the churn — and that every stream callback still runs on the one
driving thread.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.distributed_map import DistributedMap
from repro.net.channel import SimChannel
from repro.pullstream import async_map, collect, pull, values
from repro.sched import EventLoopScheduler
from repro.sched.sources import EventSource
from repro.sim.clock import VirtualClock
from repro.sim.failures import ChurnModel
from repro.sim.network import LAN_PROFILE, NetworkModel
from repro.sim.scheduler import Scheduler

WORKERS = 220
DRIVERS = WORKERS - 3  # two pools and one channel complete the population
INPUTS = 500


class DriverStepSource(EventSource):
    """Step the manual sub-stream drivers from the event loop, fairly.

    One dispatch delivers the pending results of exactly one driver
    (rotating), so the driver population shares rounds with the pools and
    the simulated channel instead of flushing all at once.
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


def lend(dmap):
    box = []
    dmap.lender.lend_stream(lambda err, sub: box.append(sub))
    return box[0]


def build_mixed_run(dmap, sched, substream_driver, seed=1234):
    """Attach pools, a simulated channel and churning drivers to *dmap*."""
    input_values = list(range(INPUTS))
    output = pull(values(input_values), dmap, collect())

    main_thread = threading.get_ident()
    callback_threads = set()

    # --- two process pools (one OS process each) ---------------------------
    pool_handles = [
        dmap.add_process_pool(
            "repro.pool.workloads:times10",
            processes=1,
            batch_size=1,
            worker_id=f"pool-{index}",
        )
        for index in range(2)
    ]

    # --- one simulated channel, stepped on the loop ------------------------
    sim = Scheduler(VirtualClock())
    network = NetworkModel(default_profile=LAN_PROFILE, seed=seed)
    channel = SimChannel(sim, network, "master", "volunteer",
                         heartbeats_enabled=False)
    channel.connect(lambda _err, _chan: None)
    sim.run_until(sim.now + 1.0)
    assert channel.established

    def remote_fn(value, cb):
        callback_threads.add(threading.get_ident())
        cb(None, value * 10)

    pull(channel.remote.duplex.source, async_map(remote_fn),
         channel.remote.duplex.sink)
    channel_handle = dmap.add_channel(channel.local.duplex, worker_id="channel")
    sched.register_sim(sim)

    # --- 217 churning driver-backed workers --------------------------------
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
                sub, crash_after=crash_points[worker_id], auto_deliver=False
            )
        else:
            driver = substream_driver(sub, auto_deliver=False, max_in_flight=1)
        drivers.append(driver.start())

    sched.register(DriverStepSource(drivers))
    return (input_values, output, pool_handles, channel_handle,
            callback_threads, main_thread)


def assert_accounting(dmap, workers_attached):
    total = dmap.stats
    assert total.values_read == INPUTS
    assert total.results_delivered == INPUTS
    assert total.substreams_opened == workers_attached
    assert total.values_lent == INPUTS + total.values_relent
    assert sum(total.lent_per_substream.values()) == total.values_lent
    assert dmap.lender.outstanding == 0
    assert dmap.lender.relendable == 0


@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
def test_mixed_sources_survive_churn(substream_driver, ordered):
    sched = EventLoopScheduler()
    dmap = DistributedMap(ordered=ordered, batch_size=1, scheduler=sched)
    try:
        (inputs, output, pool_handles, channel_handle,
         callback_threads, main_thread) = build_mixed_run(
            dmap, sched, substream_driver
        )
        dmap.drive(output, timeout=120)

        expected = [value * 10 for value in inputs]
        if ordered:
            # Exactly once, in global input order.
            assert output.result() == expected
        else:
            # Exactly once: a permutation, nothing lost or duplicated.
            assert sorted(output.result()) == expected
        assert_accounting(dmap, WORKERS)

        # Every transport participated in the computation.
        for handle in pool_handles:
            assert handle.pool.results_returned > 0
        assert dmap.stats.results_per_substream[channel_handle.substream.id] > 0
        # The single-threaded pull-stream invariant held throughout.
        assert callback_threads == {main_thread}
    finally:
        dmap.close()
        sched.close()
