"""``pando-lint``: concurrency-aware static analysis for the pando stack.

The runtime packages enforce the pull-stream and slot-ownership protocols
dynamically (``ProtocolChecker``, the shm ring's accounting asserts, the
property-test suites).  This package enforces the same invariants
*statically*, before the code ever runs, with four checkers:

``callback-discipline``
    every ``read(end, cb)``-shaped function answers its callback exactly
    once per path, or visibly hands it off;
``resource-pairing``
    every ``ShmRing.acquire()`` / ``SharedMemory`` / ``Process`` handle and
    every pipe end is released or handed off on every exit path;
``thread-ownership``
    no path from a foreign-thread entry point reaches ``@loop_only`` code
    without crossing ``scheduler.wake()`` / ``call_soon_threadsafe``;
``blocking-call-on-loop``
    no ``time.sleep`` / untimed ``Future.result()`` / untimed lock or
    queue wait is reachable from the event loop's dispatch machinery.

Run it with ``python -m repro.analysis``, the ``pando-lint`` script, or
``pando lint``.  Silence an intentional pattern with a reviewed
``# pando-lint: ignore[checker-id]`` comment on (or directly above) the
flagged line.
"""

from __future__ import annotations

from typing import Any

from .. import _lazy
from .annotations import (
    any_thread,
    enable_thread_asserts,
    loop_only,
    mark_loop_thread,
    ownership_of,
    thread_asserts_enabled,
    unmark_loop_thread,
)

# The annotations above are on the import path of every hot module (sched,
# pool, net, worker); the lint runner and its checkers are not, so their
# names resolve on first use (PEP 562) and a volunteer never imports them.
_LAZY = _lazy.by_name(
    {
        "findings": ("Finding", "format_finding"),
        "runner": ("AnalyzedModule", "LintResult", "analyze_paths", "run_checkers"),
    }
)


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _LAZY, name)


__all__ = [
    "AnalyzedModule",
    "Finding",
    "LintResult",
    "analyze_paths",
    "any_thread",
    "enable_thread_asserts",
    "format_finding",
    "loop_only",
    "mark_loop_thread",
    "ownership_of",
    "run_checkers",
    "thread_asserts_enabled",
    "unmark_loop_thread",
]
