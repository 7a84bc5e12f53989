"""The async pump: the one wait loop behind every ``drive()`` and ``run()``.

:func:`async_pump` is the only place the master waits — process pools,
simulated deployments, websocket gateways and thread-fed ports all go
through this structure::

    while a sink is still pending:
        dispatch one fair round across every registered source
        if something progressed: continue        # stay hot
        if nothing is ready and nothing can become ready: raise (stalled)
        wait for a wake-up (with a safety-net poll interval)

The deadline, the stall diagnosis, the abort fan-out, the counters, the
trace events and the wait itself exist once.  Every source lives on the
loop — a pool's worker pipes and a gateway's sockets on its selector, a
paced simulation on its timers, a port behind its thread-safe wake — so the
pump arms every source and awaits the one wake event.  While rounds stay
productive it does not wait, and gives the loop's callbacks a turn once per
:data:`LOOP_TURN_INTERVAL` of dispatching rather than once per round: on an
unpaced simulation every round is one sim event, and a loop turn each
(``epoll``, a handle, a task step) cost more than the event.  A pool's
reader callback, a gateway socket, a loop timer or a thread-safe wake is
therefore served at most that interval plus one dispatch late while
round-dispatched sources are busy, and a foreign thread waiting for the GIL
gets it within one switch interval.  A pool's or a gateway's reader callback
delivers what it read itself (``scheduler.dispatch_now``); the pump stays the
place where its backlog, the abort fan-out and an exception such a delivery
raised are handled — the last one re-raised from here, out of ``run()``.

The pump never blocks the thread on any single source, and it checks the
abort predicate between rounds so a ``find`` hit cancels the pools' queued
frames within one round of the hit being delivered, not after the stream
terminations meander through every shard.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional, Sequence

from ..errors import PandoError
from ..pullstream.sinks import SinkResult

__all__ = ["async_pump"]

#: Longest the pump dispatches productive rounds back to back before it
#: gives the loop's other callbacks a turn (seconds of ``time.monotonic``).
#: It must stay above CPython's GIL switch interval
#: (``sys.getswitchinterval()``, 5 ms by default).  A turn polls the selector,
#: which drops and at once retakes the GIL; that restarts the switch clock of
#: a thread waiting for the GIL without handing it over, so turns closer
#: together than the switch interval keep every other Python thread — a
#: producer feeding a ``PushablePort``, the metrics endpoint — from running
#: at all while the rounds stay productive.  Spaced wider, the waiting
#: thread's clock runs out and the interpreter forces the hand-over.
LOOP_TURN_INTERVAL = 0.01


async def async_pump(
    scheduler,
    sinks: Sequence[SinkResult],
    timeout: Optional[float] = None,
    poll_interval: Optional[float] = None,
    aborted: Optional[Callable[[], bool]] = None,
    on_abort: Optional[Callable[[], int]] = None,
) -> None:
    """Dispatch *scheduler*'s sources until every sink completes.

    Runs on the scheduler's private loop (see
    :meth:`~repro.sched.event_loop.EventLoopScheduler.run`, the sync entry
    point).  *poll_interval* overrides the scheduler's safety-net wait for
    this run.  *aborted* is polled between rounds; its first True triggers
    the cancellation fan-out — via *on_abort* when given, else a forced
    :meth:`cancel_pools` across every registered source (the predicate's
    contract: no pool driven by this run will deliver another consumable
    result).  Raises :class:`~repro.errors.PandoError` on timeout or stall.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    safety_net = (
        poll_interval if poll_interval is not None else scheduler.poll_interval
    )
    if safety_net <= 0:
        raise PandoError("poll_interval must be positive")
    loop = asyncio.get_running_loop()
    wake = asyncio.Event()
    scheduler._wake_event = wake
    cancelled = False
    # Sink completion is itself a wake-up source: a run whose last progress
    # happens outside the dispatch rounds (a port-fed pipeline completing
    # from a producer thread) must terminate the moment its sink finishes,
    # not at the next safety-net poll.  ``wake`` is thread-safe, and a sink
    # clears its callbacks on completion, so registration is per-run cheap.
    for sink in sinks:
        sink.on_done(lambda _sink: scheduler.wake())

    trace = getattr(scheduler, "trace", None)
    # Sources that deliver from their own loop callback (dispatch_now) wake
    # the pump when this turns true, and park what they raise for it.
    scheduler._aborted = aborted

    def fan_out_cancellation() -> bool:
        nonlocal cancelled
        if cancelled or aborted is None or not aborted():
            return cancelled
        cancelled = True
        scheduler._aborted = None
        if on_abort is not None:
            count = on_abort()
            scheduler.cancellations += count
        else:
            count = scheduler.cancel_pools(force=True)
        if trace is not None:
            trace.emit("abort_fanout", cancelled=count)
        return True

    last_turn = time.monotonic()
    try:
        while True:
            if scheduler._callback_error is not None:
                raise scheduler._callback_error  # run() clears it
            if all(sink.done for sink in sinks):
                break
            # ``>=`` so a deadline of "now" fires on the round that reaches
            # it: with a strict ``>`` (and a coarse monotonic clock),
            # ``timeout=0`` could never fire on the first round.
            if deadline is not None and time.monotonic() >= deadline:
                if trace is not None:
                    trace.emit(
                        "pump_timeout",
                        timeout=timeout,
                        pending=sum(1 for sink in sinks if not sink.done),
                    )
                raise PandoError("EventLoopScheduler.run timed out")
            fan_out_cancellation()
            if scheduler.dispatch_round() > 0:
                # Something moved; re-check the sinks before waiting.  Once
                # per LOOP_TURN_INTERVAL an explicit zero-sleep yields to
                # loop callbacks (pipe readers, timers, thread-safe wakes)
                # so a dispatch storm cannot starve them.
                if time.monotonic() - last_turn >= LOOP_TURN_INTERVAL:
                    await asyncio.sleep(0)
                    last_turn = time.monotonic()
                continue
            if all(sink.done for sink in sinks):
                break
            # Nothing ready: arm wake-ups, then re-check to close the race
            # where a source became ready between round and arming.
            wake.clear()
            for source in scheduler.sources:
                source.arm()
            if scheduler._any_ready():
                continue
            if not scheduler._any_live():
                scheduler.stalls += 1
                if trace is not None:
                    trace.emit(
                        "pump_stall",
                        sources=len(scheduler.sources),
                        pending=sum(1 for sink in sinks if not sink.done),
                    )
                raise PandoError(
                    "EventLoopScheduler stalled: a sink has not completed and "
                    "no registered source can make progress (is every shard "
                    "served by at least one worker?)"
                )
            budget = safety_net
            if deadline is not None:
                budget = min(budget, max(deadline - time.monotonic(), 0.001))
            # The safety net is a loop timer setting the same event: the
            # pump task itself awaits it, with no helper task per wait.
            timer = loop.call_later(budget, wake.set)
            await wake.wait()
            last_turn = time.monotonic()
            if loop.time() < timer.when():
                scheduler.wakeups += 1
            timer.cancel()
        # The final dispatch may have aborted the stream (a find hit on the
        # last delivered value): fan the cancellation out before returning,
        # so the caller gets the cores back without waiting for close().
        fan_out_cancellation()
    finally:
        scheduler._wake_event = None
        scheduler._aborted = None
