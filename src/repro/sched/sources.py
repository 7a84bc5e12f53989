"""Ready-callback sources driven by the :class:`EventLoopScheduler`.

Every kind of asynchronous work the master waits on, timers aside (they sit
on the loop's heap), is one :class:`EventSource`: an :class:`EndpointSource`
(a pool's worker pipes, a gateway's volunteer sockets — messages filed by
:class:`~repro.net.endpoint.Endpoint` objects on the loop's selector), a
:class:`PushablePort` (values pushed by a foreign thread), or an
application's own source (the churn test suite drives fake workers through
one).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..analysis.annotations import any_thread, loop_only
from ..pullstream.pushable import Pushable

__all__ = ["EventSource", "EndpointSource", "PushablePort"]


class EventSource:
    """One registered waitable; subclass and override the three predicates.

    ``ready()``: dispatchable work exists *right now*.  ``dispatch()``: run
    one small unit of it on the loop thread (fairness depends on it), True
    when something was done.  ``live()``: the source may become ready later
    on its own — and then wakes the loop, through its file objects or
    ``scheduler.wake()``; with nothing ready or live and no timer pending, a
    pending sink is a stall.
    """

    #: the scheduler dispatching this source, handed over by :meth:`attach`
    scheduler: Any = None

    def attach(self, scheduler: Any) -> None:
        self.scheduler = scheduler

    def ready(self) -> bool:  # pragma: no cover - interface default
        return False

    def dispatch(self) -> bool:  # pragma: no cover - interface default
        return False

    def live(self) -> bool:  # pragma: no cover - interface default
        return False

    def cancel_pending(self, force: bool = False) -> int:
        """Cancellation fan-out hook, returning the frames told to stop.
        *force* asserts the results can no longer be consumed (see
        :meth:`EventLoopScheduler.cancel_pools`)."""
        return 0


class EndpointSource(EventSource):
    """A source whose unit of work is one message an endpoint filed.

    Subclasses put their endpoints on the loop with :meth:`watch` and
    implement :meth:`handle`.  The reader callback queues the endpoint's
    turn and takes one at once (``scheduler.dispatch_now``); a backlog goes
    through the fair round, endpoints taking turns.
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
        """One filed *message*: a frame's bytes, or how the stream ended."""
        raise NotImplementedError


class PushablePort(EventSource):
    """Thread-safe producer end of a :class:`Pushable` source: ``push`` /
    ``end`` / ``error`` queue from any thread (the deque's append and
    popleft are atomic; a lock orders the seal), and only :meth:`dispatch`,
    on the loop thread, applies them to the pushable."""

    def __init__(self, pushable: Optional[Pushable] = None) -> None:
        self.pushable = pushable if pushable is not None else Pushable()
        self._lock = threading.Lock()
        self._inbox: Deque[Tuple[Callable[..., None], tuple]] = deque()
        self._sealed = False  # the producer announced it is finished
        #: values transferred into the pushable so far
        self.values_ported = 0

    @any_thread
    def push(self, value: Any) -> None:
        """Queue *value* for delivery into the stream."""
        self._enqueue(self.pushable.push, value)

    @any_thread
    def end(self) -> None:
        """Terminate the stream normally once queued values drain."""
        self._enqueue(self.pushable.end)

    @any_thread
    def error(self, exc: BaseException) -> None:
        """Terminate the stream with *exc* once queued values drain."""
        self._enqueue(self.pushable.error, exc)

    @any_thread
    def _enqueue(self, apply: Callable[..., None], *args: Any) -> None:
        with self._lock:
            if self._sealed:
                return
            self._inbox.append((apply, args))
            # sealed only once its op is queued: live() reads both unlocked
            self._sealed = apply != self.pushable.push
        self.scheduler.wake()

    def ready(self) -> bool:
        return bool(self._inbox)

    @loop_only
    def dispatch(self) -> bool:
        if not self._inbox:
            return False
        apply, args = self._inbox.popleft()
        if apply == self.pushable.push:
            self.values_ported += 1
        apply(*args)
        return True

    def live(self) -> bool:
        # only a sealed, drained port can no longer contribute progress
        return not self._sealed or bool(self._inbox)
