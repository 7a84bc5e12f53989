"""Ready-callback sources driven by the :class:`EventLoopScheduler`.

Every kind of asynchronous work the master process waits on is adapted to
one small interface, :class:`EventSource`:

* :class:`PoolEventSource` — a non-blocking
  :class:`~repro.pool.process_pool.ProcessPoolWorker`.  The master's end of
  each worker process's pipe is an :class:`~repro.net.endpoint.Endpoint` on
  the loop's selector from the moment the process starts — the same object,
  put there by the same ``Endpoint.watch``, as a websocket volunteer's socket
  under its gateway.  A readable pipe is read as far as it goes; a reply that
  is whole is filed (which also hands that child its next frame) and, when it
  answers the parked ask, delivered from that same callback
  (:meth:`~repro.sched.event_loop.EventLoopScheduler.dispatch_now`).
  Dispatch delivers exactly one result — per readable event, or per round
  for a backlog (fairness) — cascading through the stream machinery on the
  loop thread.
* :class:`SimEventSource` — a discrete-event
  :class:`~repro.sim.scheduler.Scheduler` (simulated channels, heartbeats,
  failure schedules).  Dispatch processes exactly one simulated event.  By
  default virtual time runs as fast as the loop is free; with *time_scale*
  set, events are paced against the wall clock (one virtual second takes
  ``time_scale`` real seconds) and arming plants a loop timer for the next
  due event.
* :class:`PushablePort` — a thread-safe ingress into the single-threaded
  pull-stream world, for **foreign threads only** (a user's producer thread;
  nothing of the master's own runs on one).  Any thread may
  :meth:`~PushablePort.push`; dispatch transfers the value into the wrapped
  :class:`~repro.pullstream.pushable.Pushable` on the loop thread, so the
  stream machinery still never runs concurrently.

The interface is deliberately tiny so applications can register their own
sources (the churn test suite drives fake workers through one).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Optional, Tuple

from ..analysis.annotations import any_thread, loop_only
from ..errors import PandoError
from ..pullstream.pushable import Pushable

__all__ = ["EventSource", "PoolEventSource", "SimEventSource", "PushablePort"]


class EventSource:
    """One registered waitable; subclass and override the four predicates.

    ``ready()``
        Dispatchable work exists *right now*.
    ``dispatch()``
        Run one bounded unit of work on the loop thread; return True when
        something was actually done.  One unit must stay small (one result,
        one simulated event) — fairness across sources depends on it.
    ``live()``
        The source may become ready later without any local dispatch (a
        worker's reply arriving on its socket, a paced simulation timer, an
        external producer).  The scheduler declares a stall when no source is ready
        or live while a sink is still pending.
    ``arm()``
        Install wake-ups (pipe readers, loop timers) so the scheduler's
        await is cut short the moment the source becomes ready.  Every
        wake-up comes from the scheduler's loop: its selector, its timers,
        or ``scheduler.wake()`` from another thread.
    """

    def ready(self) -> bool:  # pragma: no cover - interface default
        return False

    def dispatch(self) -> bool:  # pragma: no cover - interface default
        return False

    def live(self) -> bool:  # pragma: no cover - interface default
        return False

    def arm(self) -> None:  # pragma: no cover - interface default
        return None

    def cancel_pending(self, force: bool = False) -> int:
        """Cancellation fan-out hook; sources with nothing to cancel: 0.

        *force* carries the caller's assertion that the work's results can
        no longer be consumed (see
        :meth:`EventLoopScheduler.cancel_pools`); sources that cannot
        verify safety themselves only cancel when it is set.
        """
        return 0


class PoolEventSource(EventSource):
    """Event-loop delivery for one non-blocking process pool."""

    def __init__(self, scheduler: Any, pool: Any) -> None:
        if getattr(pool, "blocking", False):
            raise PandoError(
                "EventLoopScheduler requires a non-blocking pool source: a "
                "blocking ProcessPoolWorker monopolises the loop thread on "
                "its children's pipes (construct it with blocking=False)"
            )
        self._scheduler = scheduler
        self.pool = pool
        # The pool watches the children it starts later the same way.  Not
        # ``arm()``: the pump only arms before it waits, and beside a source
        # that is always ready it never waits — the replies must be read anyway.
        pool.watcher = self
        for child in pool.children:
            child.watch(self.loop, self.on_filed)

    @property
    def loop(self) -> Any:
        """The loop whose selector reads the pool's pipes."""
        return self._scheduler.loop

    def ready(self) -> bool:
        return self.pool.deliverable

    @loop_only
    def dispatch(self) -> bool:
        return self.pool.poll(limit=1)

    def live(self) -> bool:
        # A parked ask with frames in the children is answered when a reply
        # arrives; anything else needs outside help to progress.
        return self.pool.waiting and self.pool.pending > 0

    @loop_only
    def on_filed(self, child: Any) -> None:
        """*child*'s endpoint filed a reply, or the way its pipe ended."""
        pool = self.pool
        pool.receive(child)
        if pool.deliverable:
            # The reply just read (or one filed behind it) answers the
            # parked ask: down the stream now, not one loop turn later.
            self._scheduler.dispatch_now(self)
        # A failed receive closes the pool: the pump must look again.
        if pool.closed:
            self._scheduler.wake_from_loop()

    def cancel_pending(self, force: bool = False) -> int:
        return self.pool.cancel_pending(force=force)


class SimEventSource(EventSource):
    """Step a discrete-event simulation from the asyncio loop.

    *time_scale* ``None`` (default) runs virtual events whenever the loop is
    otherwise idle — the usual run-to-completion mode.  A positive float
    paces them: one virtual second occupies ``time_scale`` wall-clock
    seconds (``0.001`` runs the simulation 1000x faster than real time),
    with the pace anchored at the first dispatch.
    """

    def __init__(
        self, scheduler: Any, sim: Any, time_scale: Optional[float] = None
    ) -> None:
        if time_scale is not None and time_scale <= 0:
            raise ValueError("time_scale must be positive (or None to run eagerly)")
        self._scheduler = scheduler
        self.sim = sim
        self.time_scale = time_scale
        self._anchor_real: Optional[float] = None
        self._anchor_virtual: Optional[float] = None
        #: virtual seconds advanced while registered (clock listener)
        self.virtual_elapsed = 0.0
        sim.clock.on_advance(self._on_advance)

    def _on_advance(self, previous: float, now: float) -> None:
        self.virtual_elapsed += now - previous

    def _due_at(self) -> Optional[float]:
        """Wall-clock time the next event is due (None when idle)."""
        next_time = self.sim.next_event_time()
        if next_time is None:
            return None
        if self.time_scale is None:
            return 0.0
        if self._anchor_real is None:
            self._anchor_real = time.monotonic()
            self._anchor_virtual = self.sim.now
        return self._anchor_real + (next_time - self._anchor_virtual) * self.time_scale

    def ready(self) -> bool:
        due = self._due_at()
        if due is None:
            return False
        return self.time_scale is None or time.monotonic() >= due

    def dispatch(self) -> bool:
        return self.sim.step()

    def live(self) -> bool:
        return self.sim.next_event_time() is not None

    def arm(self) -> None:
        due = self._due_at()
        if due is None or self.time_scale is None:
            return
        remaining = due - time.monotonic()
        if remaining > 0:
            self._scheduler.wake_after(remaining)


class PushablePort(EventSource):
    """Thread-safe producer endpoint feeding a :class:`Pushable` source.

    ``push`` / ``end`` / ``error`` may be called from any thread; the
    operations queue under a lock and are applied to the wrapped pushable
    only by :meth:`dispatch`, on the loop thread — preserving the
    single-threaded pull-stream invariant while letting a real network
    stack (or any producer thread) inject values into a running pipeline.
    """

    def __init__(self, scheduler: Any, pushable: Optional[Pushable] = None) -> None:
        self._scheduler = scheduler
        self.pushable = pushable if pushable is not None else Pushable()
        self._lock = threading.Lock()
        self._inbox: Deque[Tuple[str, Any]] = deque()
        self._sealed = False  # producer announced it is finished
        #: values transferred into the pushable so far
        self.values_ported = 0

    # -- producer side (any thread) ---------------------------------------
    @any_thread
    def push(self, value: Any) -> None:
        """Queue *value* for delivery into the stream (thread-safe)."""
        self._enqueue(("value", value))

    @any_thread
    def end(self) -> None:
        """Terminate the stream normally once queued values drain."""
        self._enqueue(("end", None))

    @any_thread
    def error(self, exc: BaseException) -> None:
        """Terminate the stream with *exc* once queued values drain."""
        self._enqueue(("error", exc))

    @any_thread
    def _enqueue(self, op: Tuple[str, Any]) -> None:
        with self._lock:
            if self._sealed:
                return
            if op[0] != "value":
                self._sealed = True
            self._inbox.append(op)
        self._scheduler.wake()

    # -- scheduler side (loop thread) --------------------------------------
    def ready(self) -> bool:
        with self._lock:
            return bool(self._inbox)

    @loop_only
    def dispatch(self) -> bool:
        with self._lock:
            if not self._inbox:
                return False
            kind, payload = self._inbox.popleft()
        if kind == "value":
            self.values_ported += 1
            self.pushable.push(payload)
        elif kind == "end":
            self.pushable.end()
        else:
            self.pushable.error(payload)
        return True

    def live(self) -> bool:
        # An open port may receive a push from another thread at any moment;
        # only a sealed, drained port can no longer contribute progress.
        with self._lock:
            return not self._sealed or bool(self._inbox)
