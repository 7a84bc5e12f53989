"""Cyclic garbage of a live batched pool map must not grow with its frames.

The live counterpart of ``tests/sim/test_gc_cycles.py``: every frame a
batched map sends through a process pool passes ``batching``, the limiter
and ``unbatching`` on the master, and nothing on that per-frame path may
be a reference cycle.  One would leave each frame's callbacks to the cyclic
collector, so the garbage of a run would track its input count.

Each run has the collector disabled and counts, before the map closes,
every cyclic object that became unreachable while it ran.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.distributed_map import DistributedMap
from repro.pullstream import collect, pull, values

#: growth allowed between the smallest and the largest input count; a
#: per-frame cycle adds several objects per frame, thousands here
SLACK = 20


def _cyclic_garbage(inputs: int, ordered: bool) -> int:
    gc.collect()
    gc.disable()
    dmap = DistributedMap(ordered=ordered, batch_size=4)
    try:
        output = pull(values(list(range(inputs))), dmap, collect())
        dmap.add_process_pool("repro.pool.workloads:echo", processes=1)
        dmap.drive(output, timeout=60)
        assert sorted(output.result()) == list(range(inputs))
        return gc.collect()
    finally:
        dmap.close()
        gc.enable()


@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
def test_cyclic_garbage_does_not_grow_with_frames(ordered):
    _cyclic_garbage(100, ordered)  # first use: imports and caches settle
    garbage = {inputs: _cyclic_garbage(inputs, ordered) for inputs in (500, 4000)}
    assert garbage[4000] - garbage[500] <= SLACK, (
        f"cyclic garbage tracks frames: {garbage}"
    )
