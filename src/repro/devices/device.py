"""Simulated volunteer devices.

A :class:`SimDevice` models the execution host of one or more browser tabs:
it owns a number of cores, executes tasks whose duration is derived from the
device's calibrated per-application rate (see
:mod:`repro.devices.profiles`), and can crash (crash-stop) at a scheduled
time, after which every queued and running task is silently dropped — exactly
the failure mode Pando tolerates (paper section 2.3).

A running task is a small slots object whose bound ``step`` sits in the
scheduler; nothing on a task's path references itself, so a finished (or
crashed) task and the worker's callback chain behind it are freed by
refcount, never left to the cyclic collector.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..errors import WorkerCrashed
from ..sim.scheduler import ScheduledEvent, Scheduler
from .profiles import DeviceProfile

__all__ = ["SimDevice", "CoreSlot"]

CompletionCallback = Callable[[Optional[BaseException], Any], None]


class CoreSlot:
    """One execution core of a simulated device."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.busy = False
        self.busy_until = 0.0
        self.tasks_completed = 0
        self.busy_time = 0.0
        #: the running task's next step, while it can still fire (a core runs
        #: one task, one chunk at a time) — what :meth:`SimDevice.crash` cancels
        self.pending: Optional[ScheduledEvent] = None


class _Task:
    """One task on one core; the scheduler holds its bound :meth:`step`.

    Once the last step fired (or a crash's cancelled one left the
    scheduler) nothing references the task.  A closure that rescheduled
    itself would hold itself through its own cell: a cycle per value that
    only the cyclic collector frees.
    """

    __slots__ = ("device", "core", "remaining", "chunk_duration", "duration", "callback")

    def __init__(
        self,
        device: "SimDevice",
        core: CoreSlot,
        chunks: int,
        duration: float,
        callback: CompletionCallback,
    ) -> None:
        self.device = device
        self.core = core
        self.remaining = chunks
        self.chunk_duration = duration / chunks
        self.duration = duration
        self.callback = callback

    def step(self) -> None:
        device = self.device
        core = self.core
        core.pending = None
        if device.crashed:
            return
        self.remaining -= 1
        core.busy_time += self.chunk_duration
        if self.remaining > 0:
            if device.stop_check is not None and device.stop_check():
                # Abandon between chunks: the core frees immediately and
                # the task never calls back — this is what bounds the
                # post-abort tail to at most one chunk of virtual time.
                core.busy = False
                device.tasks_stopped += 1
                device._drain_queue()
                return
            core.pending = device.scheduler.call_later(self.chunk_duration, self.step)
            return
        core.busy = False
        core.tasks_completed += 1
        device.last_completion_at = device.scheduler.now
        self.callback(None, self.duration)
        device._drain_queue()


class SimDevice:
    """A device with ``cores`` execution slots driven by the scheduler.

    Tasks are submitted with :meth:`execute`; if every core is busy the task
    waits in a FIFO queue.  Durations are ``cost / per_core_rate(app)``
    seconds of virtual time, matching the device's calibrated throughput.
    """

    #: rate (work units per second per core) used for applications the
    #: profile has no calibrated rate for (e.g. ad-hoc test functions)
    default_rate = 100.0

    def __init__(
        self,
        profile: DeviceProfile,
        scheduler: Scheduler,
        cores: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        self.profile = profile
        self.scheduler = scheduler
        self.name = name or profile.name
        self.cores = [CoreSlot(i) for i in range(cores or profile.cores)]
        self.crashed = False
        self.crashed_at: Optional[float] = None
        #: duration multiplier; > 1 makes the device a straggler
        self.speed_factor = 1.0
        #: work units per execution chunk; ``None`` runs tasks in one piece
        self.task_chunk: Optional[float] = None
        #: polled between chunks (and before starting a task); True abandons
        #: the task without calling back — the bounded-tail cancellation hook
        self.stop_check: Optional[Callable[[], bool]] = None
        self.tasks_stopped = 0
        self.last_completion_at: Optional[float] = None
        self._queue: Deque[Tuple[str, float, CompletionCallback]] = deque()
        self._crash_listeners: List[Callable[["SimDevice"], None]] = []
        self._task_ids = itertools.count()

    # ------------------------------------------------------------ execution
    def execute(
        self, application: str, cost: float, callback: CompletionCallback
    ) -> None:
        """Run *cost* work units of *application*, then call *callback*.

        ``callback(err, duration)`` receives the task duration in seconds, or
        a :class:`~repro.errors.WorkerCrashed` error if the device crashed
        before completion (in the crash-stop model the callback of a crashed
        device is in fact never observed remotely — the channel simply goes
        silent — but local callers such as metrics use the error form).
        """
        if self.crashed:
            callback(WorkerCrashed(self.name, f"{self.name} already crashed"), None)
            return
        core = self._idle_core()
        if core is None:
            self._queue.append((application, cost, callback))
            return
        self._start(core, application, cost, callback)

    def _idle_core(self) -> Optional[CoreSlot]:
        for core in self.cores:
            if not core.busy:
                return core
        return None

    def task_duration(self, application: str, cost: float) -> float:
        """Duration of a task, falling back to :attr:`default_rate` for
        applications absent from the calibrated profile."""
        if self.profile.supports(application):
            base = self.profile.task_duration(application, cost)
        else:
            base = cost / self.default_rate
        return base * self.speed_factor

    def set_speed_factor(self, factor: float) -> None:
        """Change the duration multiplier for tasks started from now on."""
        if factor <= 0:
            raise ValueError("speed factor must be positive")
        self.speed_factor = factor

    def _start(
        self,
        core: CoreSlot,
        application: str,
        cost: float,
        callback: CompletionCallback,
    ) -> None:
        if self.stop_check is not None and self.stop_check():
            # A stopped scenario abandons the task: never calling back is the
            # point — nobody downstream wants the result.
            self.tasks_stopped += 1
            return  # pando-lint: ignore[callback-discipline]
        duration = self.task_duration(application, cost)
        chunks = 1
        if self.task_chunk is not None and cost > self.task_chunk:
            chunks = math.ceil(cost / self.task_chunk)
        core.busy = True
        core.busy_until = self.scheduler.now + duration
        task = _Task(self, core, chunks, duration, callback)
        core.pending = self.scheduler.call_later(task.chunk_duration, task.step)

    def _drain_queue(self) -> None:
        while self._queue:
            core = self._idle_core()
            if core is None:
                return
            application, cost, callback = self._queue.popleft()
            self._start(core, application, cost, callback)

    # -------------------------------------------------------------- failure
    def crash(self) -> None:
        """Crash-stop: drop every running and queued task, notify listeners."""
        if self.crashed:
            return
        self.crashed = True
        self.crashed_at = self.scheduler.now
        for core in self.cores:
            if core.pending is not None:
                core.pending.cancel()
                core.pending = None
        self._queue.clear()
        for listener in list(self._crash_listeners):
            listener(self)

    def on_crash(self, listener: Callable[["SimDevice"], None]) -> None:
        """Register *listener* to be called when the device crashes."""
        self._crash_listeners.append(listener)

    # ----------------------------------------------------------- inspection
    @property
    def busy_cores(self) -> int:
        return sum(1 for core in self.cores if core.busy)

    @property
    def tasks_completed(self) -> int:
        return sum(core.tasks_completed for core in self.cores)

    @property
    def total_busy_time(self) -> float:
        return sum(core.busy_time for core in self.cores)

    def utilisation(self, window: float) -> float:
        """Average core utilisation over *window* seconds."""
        if window <= 0 or not self.cores:
            return 0.0
        return min(1.0, self.total_busy_time / (window * len(self.cores)))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "crashed" if self.crashed else "up"
        return (
            f"<SimDevice {self.name} {state} cores={len(self.cores)} "
            f"busy={self.busy_cores} done={self.tasks_completed}>"
        )
