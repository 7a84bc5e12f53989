"""Process-pool execution backend.

``repro.core`` coordinates work; this package *executes* it on real OS
processes so CPU-bound applications scale with the host's cores — the first
step from the simulated deployments towards "as fast as the hardware
allows".  The only export most callers need is
:meth:`repro.core.distributed_map.DistributedMap.add_process_pool`, which
wires a :class:`ProcessPoolWorker` through the standard
Limiter/batching/sub-stream composition.
"""

from .cancel import CancelFlag, flag_is_set
from .process_pool import ProcessPoolWorker, default_window
from .tasks import (
    FunctionRef,
    expects_callback,
    resolve_callable,
    run_batch,
    run_shm_batch,
)
from . import workloads

__all__ = [
    "CancelFlag",
    "flag_is_set",
    "ProcessPoolWorker",
    "default_window",
    "FunctionRef",
    "expects_callback",
    "resolve_callable",
    "run_batch",
    "run_shm_batch",
    "workloads",
]
