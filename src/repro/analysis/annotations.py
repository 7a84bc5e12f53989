"""Thread-ownership annotations for the single-threaded stream world.

The whole pull-stream machinery — lender, limiter, sinks — runs without
locks because every callback is dispatched on the thread that turns the
loop: :meth:`~repro.sched.event_loop.EventLoopScheduler.run` (which is what
``DistributedMap.drive`` calls) on the master, the session of
:func:`~repro.worker.ws_volunteer.run_volunteer` in a volunteer.  Work
arrives from other threads only through the two sanctioned crossings,
``scheduler.wake()`` and :class:`~repro.sched.sources.PushablePort`.

That contract used to live in docstrings.  These decorators make it a
machine-checkable property:

* ``@loop_only`` marks a function that must only run on the dispatch
  thread.  The ``pando-lint`` *thread-ownership* checker statically flags
  call paths from thread-entry points (``threading.Thread`` targets,
  ``add_done_callback`` callbacks, executor-submitted entry points)
  into ``@loop_only`` code that do not go through a sanctioned crossing.
* ``@any_thread`` marks a function deliberately safe to call from any
  thread (it takes a lock, or only touches the sanctioned crossings).  The
  checker walks *through* it, so everything an ``@any_thread`` function
  calls must itself be thread-safe or a crossing.

Both are free at call time unless the process was started with
``PANDO_THREAD_ASSERTS=1``: the variable is read once, at import, and
without it ``@loop_only`` only tags the function, as ``@any_thread`` does.
Armed, ``@loop_only`` returns a wrapper that checks the caller is one of
the threads registered by :func:`mark_loop_thread`: the creator of each
:class:`~repro.sched.loop.Loop` until that loop is closed, and the thread
inside ``EventLoopScheduler.run``.  A master and an in-process volunteer
each pass on their own thread, while a tab, an executor or a scrape thread
raises.  While no thread is registered nothing is checked.  CI runs the
whole suite armed; ``tests/analysis/test_thread_asserts_armed.py`` arms a
map with a process pool and an in-process volunteer, driven to completion.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Any, Callable, Dict, FrozenSet, Optional, TypeVar

from ..errors import ThreadOwnershipError

__all__ = [
    "loop_only",
    "any_thread",
    "thread_asserts_enabled",
    "mark_loop_thread",
    "unmark_loop_thread",
    "loop_thread_idents",
    "ownership_of",
]

F = TypeVar("F", bound=Callable[..., Any])

#: Attribute carrying the ownership tag on decorated functions.
OWNERSHIP_ATTR = "__pando_thread_ownership__"

#: read once, at import: each ``@loop_only`` decides then whether to wrap
_asserts_enabled = os.environ.get("PANDO_THREAD_ASSERTS", "") not in ("", "0")
#: ident -> how many times it is marked (nested marks of one thread count)
_loop_threads: Dict[int, int] = {}


def thread_asserts_enabled() -> bool:
    """True when ``@loop_only`` verifies thread identity at call time (the
    process was started with ``PANDO_THREAD_ASSERTS=1``)."""
    return _asserts_enabled


def mark_loop_thread(ident: Optional[int] = None) -> int:
    """Register *ident* (default: the current thread) as a thread that turns
    a loop, and return it: pass it to :func:`unmark_loop_thread` when the
    thread stops.  Marks nest — a thread stays registered until each of its
    marks is undone — so sequential and nested runs compose.
    """
    if ident is None:
        ident = threading.get_ident()
    _loop_threads[ident] = _loop_threads.get(ident, 0) + 1
    return ident


def unmark_loop_thread(ident: Optional[int] = None) -> None:
    """Undo one mark of *ident* (default: the current thread)."""
    if ident is None:
        ident = threading.get_ident()
    count = _loop_threads.get(ident, 0)
    if count > 1:
        _loop_threads[ident] = count - 1
    else:
        _loop_threads.pop(ident, None)


def loop_thread_idents() -> FrozenSet[int]:
    """The idents of the threads currently registered as turning a loop."""
    return frozenset(_loop_threads)


def loop_only(fn: F) -> F:
    """Mark *fn* as callable only on the dispatch (loop) thread.

    The static checker reads the decorator from the AST.  Unarmed, *fn*
    itself comes back, tagged; armed, a wrapper that asserts the caller's
    thread, tagged like the original so introspection works through
    ``__wrapped__``.
    """
    setattr(fn, OWNERSHIP_ATTR, "loop_only")
    if not _asserts_enabled:
        return fn

    @functools.wraps(fn)
    def guarded(*args: Any, **kwargs: Any) -> Any:
        if _loop_threads:
            current = threading.get_ident()
            if current not in _loop_threads:
                raise ThreadOwnershipError(
                    f"{fn.__qualname__} is @loop_only but was entered from "
                    f"thread {current}, which turns no loop (threads "
                    f"{sorted(_loop_threads)} do); route the call through "
                    f"PushablePort or scheduler.wake()"
                )
        return fn(*args, **kwargs)

    return guarded  # type: ignore[return-value]


def any_thread(fn: F) -> F:
    """Mark *fn* as deliberately safe to call from any thread.

    Pure annotation — no wrapper, no overhead: the value is the tag the
    static checker traverses through (everything an ``@any_thread``
    function calls must itself be thread-safe or a sanctioned crossing).
    """
    setattr(fn, OWNERSHIP_ATTR, "any_thread")
    return fn


def ownership_of(fn: Any) -> Optional[str]:
    """The ownership tag of *fn* (``"loop_only"``, ``"any_thread"`` or None)."""
    return getattr(fn, OWNERSHIP_ATTR, None)
