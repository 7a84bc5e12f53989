"""Simulated volunteers: one device and the browser tabs it opens.

A :class:`SimVolunteer` is a device that joins a deployment: it opens one
browser tab per core it contributes (the paper uses "the minimum number of
cores that provided close to the maximum performance", listed in Table 2).
Joining mirrors the paper's workflow: open the URL, download the worker
code, establish a WebSocket or WebRTC channel per tab, process values until
the stream ends, the device crashes, or the volunteer leaves.

Each tab runs the bundled worker code, an ``AsyncMap(f)`` that pulls values
from its channel and pushes results back (paper Figure 7, "Worker (Browser
Tab)").  A value's *duration* comes from the device's calibrated per-core
rate (:mod:`repro.devices.profiles`): the device runs one task per core and
queues the rest in FIFO order.  Its *result* comes from the application's
lightweight ``simulate_result``, or from the bundled function itself.  A
crash is a crash-stop (paper section 2.3): every running and queued task is
dropped and every tab goes silent at once.

A task is a small slots object whose bound ``step`` sits in the scheduler;
nothing on a value's path references itself, so a finished (or crashed)
task and the tab's callback chain behind it are freed by refcount, never
left to the cyclic collector.  The real volunteer, an OS process on an
actual websocket, is :mod:`repro.worker.ws_volunteer`.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, List, Optional

from ..devices.profiles import DeviceProfile
from ..master.bundler import Bundle
from ..net.channel import ChannelEndpoint
from ..net.signaling import PublicServer
from ..pullstream import async_map, pull
from ..sim.metrics import MetricsCollector
from ..sim.scheduler import ScheduledEvent, Scheduler

__all__ = ["SimVolunteer"]

NodeCallback = Callable[[Optional[BaseException], Any], None]


class _Task:
    """One value a tab handed to the device; the scheduler holds its bound
    :meth:`step` while it runs on a core.

    Once the last step fired (or a crash's cancelled one left the
    scheduler) nothing references the task.  A closure that rescheduled
    itself would hold itself through its own cell: a cycle per value that
    only the cyclic collector frees.
    """

    __slots__ = (
        "volunteer", "endpoint", "worker_id", "value", "cb", "application", "cost",
        "core", "remaining", "chunk_duration", "duration",
    )

    def __init__(
        self,
        volunteer: "SimVolunteer",
        endpoint: ChannelEndpoint,
        worker_id: str,
        value: Any,
        cb: NodeCallback,
        application: str,
        cost: float,
    ) -> None:
        self.volunteer = volunteer
        self.endpoint = endpoint
        self.worker_id = worker_id
        self.value = value
        self.cb = cb
        self.application = application
        self.cost = cost

    def step(self) -> None:
        volunteer = self.volunteer
        self.remaining -= 1
        if self.remaining > 0:
            if volunteer.stop_check is not None and volunteer.stop_check():
                # Abandon between chunks: the core frees immediately and
                # the task never calls back — this is what bounds the
                # post-abort tail to at most one chunk of virtual time.
                volunteer.cores[self.core] = None
                volunteer.tasks_stopped += 1
                volunteer._drain_queue()
                return
            volunteer.cores[self.core] = volunteer.scheduler.call_later(
                self.chunk_duration, self.step
            )
            return
        volunteer.cores[self.core] = None
        volunteer.last_completion_at = volunteer.scheduler.now
        volunteer._answer(self)
        volunteer._drain_queue()


class SimVolunteer:
    """One device contributing browser tabs to a deployment."""

    #: rate (work units per second per core) used for applications the
    #: profile has no calibrated rate for (e.g. ad-hoc test functions)
    default_rate = 100.0

    def __init__(
        self,
        profile: DeviceProfile,
        scheduler: Scheduler,
        host: Optional[str] = None,
        tabs: Optional[int] = None,
        device_name: Optional[str] = None,
    ) -> None:
        self.profile = profile
        self.scheduler = scheduler
        self.host = host or profile.name
        # device_name distinguishes rejoin incarnations of the same host:
        # the master never reuses a worker id, so each return needs its own.
        self.name = device_name or profile.name
        self.requested_tabs = tabs if tabs is not None else profile.cores
        #: the channel endpoint of every attached tab
        self.tabs: List[ChannelEndpoint] = []
        self.bundle: Optional[Bundle] = None
        self.metrics: Optional[MetricsCollector] = None
        #: each core's pending task step; None while the core is idle
        self.cores: List[Optional[ScheduledEvent]] = [None] * profile.cores
        self._queue: Deque[_Task] = deque()
        #: duration multiplier; > 1 makes the device a straggler
        self.speed_factor = 1.0
        #: work units per execution chunk; ``None`` runs tasks in one piece
        self.task_chunk: Optional[float] = None
        #: polled between chunks (and before starting a task); True abandons
        #: the task without calling back — the bounded-tail cancellation hook
        self.stop_check: Optional[Callable[[], bool]] = None
        self.items_processed = 0
        self.tasks_stopped = 0
        self.last_completion_at: Optional[float] = None
        self.joined = False
        self.crashed = False
        self.left = False

    # ------------------------------------------------------------------ join
    def join(self, scenario) -> None:
        """Join a deployment directly (same LAN / VPN as the master)."""
        self.joined = True
        scenario.accept_volunteer(self)

    def join_url(self, url: str, public_server: PublicServer) -> None:
        """Join a deployment by opening its public URL (WAN scenario)."""
        self.joined = True
        public_server.join(
            url,
            volunteer_host=self.host,
            info={"volunteer": self},
        )

    def attach_tab(
        self,
        tab_index: int,
        endpoint: ChannelEndpoint,
        bundle: Bundle,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        """Called by the master once a channel for one tab is established:
        the tab runs ``AsyncMap(f)`` between the endpoint's two halves."""
        if self.crashed:
            # The device crashed while the connection was being established.
            endpoint.crash()
            return
        if self.left:
            # The volunteer left while the connection was being established:
            # the late tab says goodbye like the others did.
            endpoint.close()
            return
        self.tabs.append(endpoint)
        self.bundle = bundle
        self.metrics = metrics
        process = partial(self._process, endpoint, f"{self.name}#{tab_index}")
        pull(endpoint.duplex.source, async_map(process), endpoint.duplex.sink)

    # ------------------------------------------------------------ execution
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

    def _process(
        self, endpoint: ChannelEndpoint, worker_id: str, value: Any, cb: NodeCallback
    ) -> None:
        if endpoint.closed:
            # A crashed tab never answers; the master's heartbeat timeout
            # detects the silence.
            return  # pando-lint: ignore[callback-discipline]
        application = self.bundle.application
        cost = (
            application.cost(value)
            if application is not None and hasattr(application, "cost")
            else 1.0
        )
        task = _Task(
            self, endpoint, worker_id, value, cb,
            getattr(application, "name", "generic"), cost,
        )
        core = self._idle_core()
        if core is None:
            self._queue.append(task)
            return
        self._start(core, task)

    def _idle_core(self) -> Optional[int]:
        for index, step in enumerate(self.cores):
            if step is None:
                return index
        return None

    def _start(self, core: int, task: _Task) -> None:
        if self.stop_check is not None and self.stop_check():
            # A stopped scenario abandons the task: never calling back is the
            # point — nobody downstream wants the result.
            self.tasks_stopped += 1
            return  # pando-lint: ignore[callback-discipline]
        duration = self.task_duration(task.application, task.cost)
        chunks = 1
        if self.task_chunk is not None and task.cost > self.task_chunk:
            chunks = math.ceil(task.cost / self.task_chunk)
        task.core = core
        task.remaining = chunks
        task.chunk_duration = duration / chunks
        task.duration = duration
        self.cores[core] = self.scheduler.call_later(task.chunk_duration, task.step)

    def _drain_queue(self) -> None:
        while self._queue:
            core = self._idle_core()
            if core is None:
                return
            self._start(core, self._queue.popleft())

    def _answer(self, task: _Task) -> None:
        if task.endpoint.closed:
            # The tab went away while the device computed: the result is
            # never sent.
            return  # pando-lint: ignore[callback-discipline]
        try:
            result = self._compute_result(task.value)
        except Exception as exc:
            task.cb(exc, None)
            return
        self.items_processed += 1
        if self.metrics is not None:
            self.metrics.record_work(
                task.worker_id, timestamp=self.scheduler.now, duration=task.duration
            )
        task.cb(None, result)

    def _compute_result(self, value: Any) -> Any:
        application = self.bundle.application
        if application is not None and hasattr(application, "simulate_result"):
            return application.simulate_result(value)
        # No application metadata: run the bundled function synchronously.
        outcome = {}

        def node_cb(err: Optional[BaseException], result: Any = None) -> None:
            outcome["err"] = err
            outcome["result"] = result

        self.bundle.apply(value, node_cb)
        if outcome.get("err") is not None:
            raise outcome["err"]
        return outcome.get("result")

    # --------------------------------------------------------------- failure
    def crash(self) -> None:
        """Crash-stop the whole device: every running and queued task is
        dropped and every tab goes silent at once."""
        if self.crashed:
            return
        self.crashed = True
        for step in self.cores:
            if step is not None:
                step.cancel()
        self.cores = [None] * len(self.cores)
        self._queue.clear()
        for endpoint in self.tabs:
            endpoint.crash()

    def leave(self) -> None:
        """Leave gracefully: close every tab so the master is notified."""
        self.left = True
        for endpoint in self.tabs:
            endpoint.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = (
            "crashed" if self.crashed
            else "left" if self.left
            else "joined" if self.joined
            else "idle"
        )
        return (
            f"<SimVolunteer {self.name} {state} tabs={len(self.tabs)} "
            f"processed={self.items_processed}>"
        )
