"""Process-pool execution backend.

``repro.core`` coordinates work; this package *executes* it on real OS
processes so CPU-bound applications scale with the host's cores — the first
step from the simulated deployments towards "as fast as the hardware
allows".  The only export most callers need is
:meth:`repro.core.distributed_map.DistributedMap.add_process_pool`, which
wires a :class:`ProcessPoolWorker` through the standard
Limiter/batching/sub-stream composition.  The names resolve on first use: a
volunteer runs :mod:`repro.pool.tasks` and never loads the pool itself.
"""

from typing import Any

from .. import _lazy

_EXPORTS = _lazy.by_name(
    {
        "cancel": ("CancelFlag", "flag_is_set"),
        "process_pool": ("ProcessPoolWorker", "default_window"),
        "tasks": (
            "FunctionRef",
            "expects_callback",
            "resolve_callable",
            "run_batch",
            "run_shm_batch",
        ),
        "workloads": ("workloads",),
    }
)

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)
