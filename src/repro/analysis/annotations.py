"""Thread-ownership annotations for the single-threaded stream world.

The whole pull-stream machinery — lender, limiter, splitter, sinks — runs
without locks because every callback is dispatched on exactly one thread:
the thread spinning :meth:`~repro.sched.event_loop.EventLoopScheduler.run`
(which is what ``DistributedMap.drive`` calls).  Work arrives from other
threads only through the two sanctioned crossings, ``scheduler.wake()`` and
:class:`~repro.sched.sources.PushablePort`.

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

``@any_thread`` is free at call time: it only tags the function.
``@loop_only`` is not: it returns a wrapper that runs on every call, asserts
off or on — on CPython 3.11 (Xeon, 2 vCPUs) a wrapped method call costs
~0.32 µs against ~0.06 µs called directly, and a pool reply passes through
about five of them per value.  With the runtime asserts enabled
(``enable_thread_asserts()`` or the ``PANDO_THREAD_ASSERTS=1`` environment
variable) that wrapper also verifies the caller's thread identity against
the thread registered by :func:`mark_loop_thread` — the dynamic complement
the test suite uses to prove the annotations themselves are placed
correctly.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Any, Callable, Optional, TypeVar

from ..errors import ThreadOwnershipError

__all__ = [
    "loop_only",
    "any_thread",
    "enable_thread_asserts",
    "thread_asserts_enabled",
    "mark_loop_thread",
    "unmark_loop_thread",
    "loop_thread_ident",
    "ownership_of",
]

F = TypeVar("F", bound=Callable[..., Any])

#: Attribute carrying the ownership tag on decorated functions.
OWNERSHIP_ATTR = "__pando_thread_ownership__"

_asserts_enabled = os.environ.get("PANDO_THREAD_ASSERTS", "") not in ("", "0")
_loop_thread: Optional[int] = None


def enable_thread_asserts(enabled: bool = True) -> None:
    """Turn the runtime thread-identity checks on (or off) process-wide."""
    global _asserts_enabled
    _asserts_enabled = enabled


def thread_asserts_enabled() -> bool:
    """True when ``@loop_only`` verifies thread identity at call time."""
    return _asserts_enabled


def mark_loop_thread(ident: Optional[int] = None) -> Optional[int]:
    """Register *ident* (default: the current thread) as the dispatch thread.

    Returns the previously registered ident so callers can restore it —
    :meth:`EventLoopScheduler.run` marks on entry and restores on exit, which
    keeps nested/sequential runs composable.
    """
    global _loop_thread
    previous = _loop_thread
    _loop_thread = ident if ident is not None else threading.get_ident()
    return previous


def unmark_loop_thread(previous: Optional[int] = None) -> None:
    """Deregister the dispatch thread (restoring *previous* when given)."""
    global _loop_thread
    _loop_thread = previous


def loop_thread_ident() -> Optional[int]:
    """The currently registered dispatch thread ident, if any."""
    return _loop_thread


def loop_only(fn: F) -> F:
    """Mark *fn* as callable only on the dispatch (loop) thread.

    The static checker reads the decorator from the AST; the wrapper below
    adds the optional runtime assert.  The tag is set on both the wrapper
    and the original so introspection works through ``__wrapped__``.
    """

    @functools.wraps(fn)
    def guarded(*args: Any, **kwargs: Any) -> Any:
        if _asserts_enabled and _loop_thread is not None:
            current = threading.get_ident()
            if current != _loop_thread:
                raise ThreadOwnershipError(
                    f"{fn.__qualname__} is @loop_only but was entered from "
                    f"thread {current} while thread {_loop_thread} owns the "
                    f"dispatch loop; route the call through PushablePort or "
                    f"scheduler.wake()"
                )
        return fn(*args, **kwargs)

    setattr(fn, OWNERSHIP_ATTR, "loop_only")
    setattr(guarded, OWNERSHIP_ATTR, "loop_only")
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
