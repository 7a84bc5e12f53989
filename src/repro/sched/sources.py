"""Ready-callback sources driven by the :class:`EventLoopScheduler`.

Every kind of asynchronous work the master process waits on is adapted to
one small interface, :class:`EventSource`:

* :class:`EndpointSource` — work that arrives as messages on
  :class:`~repro.net.endpoint.Endpoint` objects on the loop's selector: a
  process pool's worker pipes, a websocket gateway's volunteer sockets.  The
  reader callback that filed a message queues that endpoint's turn and takes
  one at once (:meth:`~repro.sched.event_loop.EventLoopScheduler.dispatch_now`);
  a backlog goes through the pump's fair round, one message per dispatch,
  endpoints with filed messages taking turns.
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
from ..pullstream.pushable import Pushable

__all__ = ["EventSource", "EndpointSource", "SimEventSource", "PushablePort"]


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

    #: the scheduler dispatching this source, handed over by :meth:`attach`
    scheduler: Any = None

    def attach(self, scheduler: Any) -> None:
        """Called by ``EventLoopScheduler.register``: *scheduler* hands itself
        to the source it is about to dispatch."""
        self.scheduler = scheduler

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


class EndpointSource(EventSource):
    """An event source whose unit of work is one message an endpoint filed.

    Subclasses put their endpoints on the scheduler loop with :meth:`watch`
    and implement :meth:`handle`.  ``ready`` means a turn is queued;
    ``dispatch`` hands one filed message to ``handle``, the endpoints with a
    backlog taking turns; the reader callback (:meth:`on_filed`) queues the
    endpoint's turn and takes one at once, so a reply goes down the stream
    from the callback that read it — and, between runs, waits for the next
    run's first round.
    """

    def __init__(self) -> None:
        #: endpoints with filed messages, in the order they get their turn
        self._turns: Deque[Any] = deque()

    def watch(self, endpoint: Any) -> None:
        """Read and flush *endpoint* from the scheduler's loop."""
        endpoint.watch(self.scheduler.loop, self.on_filed)

    @loop_only
    def on_filed(self, endpoint: Any) -> None:
        """*endpoint* filed something: queue its turn, and take one now."""
        if endpoint.inbox and not endpoint.has_turn:
            endpoint.has_turn = True
            self._turns.append(endpoint)
        if self._turns:
            self.scheduler.dispatch_now(self)

    def ready(self) -> bool:
        return bool(self._turns)

    @loop_only
    def dispatch(self) -> bool:
        turns = self._turns
        while turns:
            endpoint = turns.popleft()
            inbox = endpoint.inbox
            endpoint.has_turn = len(inbox) > 1
            if endpoint.has_turn:
                turns.append(endpoint)
            if inbox:  # else: finished since it queued
                self.handle(endpoint, inbox.popleft())
                return True
        return False

    def handle(self, endpoint: Any, message: Any) -> None:  # pragma: no cover
        """One filed *message* of *endpoint*: a decoded frame's bytes, or
        the exception the endpoint's stream ended with."""
        raise NotImplementedError


class SimEventSource(EventSource):
    """Step a discrete-event simulation from the asyncio loop.

    *time_scale* ``None`` (default) runs virtual events whenever the loop is
    otherwise idle — the usual run-to-completion mode.  A positive float
    paces them: one virtual second occupies ``time_scale`` wall-clock
    seconds (``0.001`` runs the simulation 1000x faster than real time),
    with the pace anchored at the first dispatch.
    """

    def __init__(self, sim: Any, time_scale: Optional[float] = None) -> None:
        if time_scale is not None and time_scale <= 0:
            raise ValueError("time_scale must be positive (or None to run eagerly)")
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
            self.scheduler.wake_after(remaining)


class PushablePort(EventSource):
    """Thread-safe producer endpoint feeding a :class:`Pushable` source.

    ``push`` / ``end`` / ``error`` may be called from any thread; the
    operations queue under a lock and are applied to the wrapped pushable
    only by :meth:`dispatch`, on the loop thread — preserving the
    single-threaded pull-stream invariant while letting a real network
    stack (or any producer thread) inject values into a running pipeline.
    """

    def __init__(self, pushable: Optional[Pushable] = None) -> None:
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
        self.scheduler.wake()

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
