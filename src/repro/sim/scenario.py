"""Deployment scenarios: build and run complete simulated Pando deployments.

A :class:`DeploymentScenario` assembles every piece of the system — master,
public server, volunteers with their devices, network model, failure
schedule — for one of the paper's three settings (LAN, VPN, WAN) and runs it
in virtual time.  Two modes are provided:

* :meth:`DeploymentScenario.run_measurement` reproduces the paper's
  methodology (section 5.1): an effectively infinite input stream is
  processed for a fixed measurement window after a warm-up, and per-worker
  throughput is derived from the number of items each worker completed —
  this regenerates the rows of Table 2;
* :meth:`DeploymentScenario.run_to_completion` processes a finite list of
  inputs until the output stream ends — used by integration tests, the
  Figure-4 deployment example and the fault-tolerance experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..apps.base import Application
from ..devices.profiles import DeviceProfile, devices_for_setting
from ..errors import DeploymentError
from ..master.bundler import bundle_function
from ..master.master import MasterConfig, PandoMaster
from ..net.signaling import PublicServer
from ..pullstream import collect, drain, from_iterable, pull
from ..worker.volunteer import SimVolunteer
from .failures import FailureSchedule
from .metrics import MetricsCollector, ThroughputReport
from .network import NetworkModel, profile_for_setting
from .scheduler import Scheduler

__all__ = ["ScenarioConfig", "ScenarioResult", "DeploymentScenario", "default_batch_size"]

#: batch sizes used by the paper per setting (sections 5.2-5.4)
PAPER_BATCH_SIZES = {"lan": 2, "vpn": 2, "wan": 4, "loopback": 2}
#: transports used by the paper per setting
PAPER_TRANSPORTS = {"lan": "websocket", "vpn": "websocket", "wan": "webrtc", "loopback": "websocket"}


def default_batch_size(setting: str) -> int:
    """The batch size the paper used for a given deployment setting."""
    return PAPER_BATCH_SIZES.get(setting.lower(), 2)


@dataclass
class ScenarioConfig:
    """Everything needed to build one simulated deployment."""

    application: Application
    setting: str = "lan"
    devices: Optional[List[DeviceProfile]] = None
    batch_size: Optional[int] = None
    transport: Optional[str] = None
    #: measurement window in virtual seconds (the paper uses 300 s; the
    #: default is shorter to keep the test suite fast — benches override it)
    duration: float = 60.0
    #: virtual seconds granted for connections to establish before measuring
    warmup: float = 5.0
    use_public_server: Optional[bool] = None
    failure_schedule: Optional[FailureSchedule] = None
    #: device name -> join time (virtual seconds); missing devices join at 0
    join_times: Dict[str, float] = field(default_factory=dict)
    #: tabs (cores) contributed per device name; defaults to the profile's cores
    tabs: Dict[str, int] = field(default_factory=dict)
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 3.0
    #: deliver outputs in input order (False = unordered StreamLender)
    ordered: bool = True
    seed: Optional[int] = 42
    #: lender shards on the master (1 = single master)
    shards: int = 1
    #: bounded split buffer per shard (requires ``shards > 1``)
    split_buffer: Optional[int] = None
    #: work units per device execution chunk; tasks poll the scenario's stop
    #: request between chunks (bounded-tail cancellation); None = whole task
    task_chunk: Optional[float] = None

    def resolved_devices(self) -> List[DeviceProfile]:
        return list(
            self.devices if self.devices is not None else devices_for_setting(self.setting)
        )

    def resolved_batch_size(self) -> int:
        return (
            self.batch_size
            if self.batch_size is not None
            else default_batch_size(self.setting)
        )

    def resolved_transport(self) -> str:
        return (
            self.transport
            if self.transport is not None
            else PAPER_TRANSPORTS.get(self.setting.lower(), "websocket")
        )

    def resolved_public_server(self) -> bool:
        if self.use_public_server is not None:
            return self.use_public_server
        return self.resolved_transport() == "webrtc"


@dataclass
class ScenarioResult:
    """Outcome of a scenario run."""

    report: Optional[ThroughputReport]
    outputs: Optional[List[Any]]
    completed_at: Optional[float]
    lender_stats: Dict[str, Any]
    registry: Dict[str, Any]
    log: List[str]
    network_bytes: int
    scheduler_events: int

    def as_dict(self) -> dict:
        return {
            "report": self.report.as_dict() if self.report else None,
            "outputs": self.outputs,
            "completed_at": self.completed_at,
            "lender_stats": self.lender_stats,
            "registry": self.registry,
            "network_bytes": self.network_bytes,
            "scheduler_events": self.scheduler_events,
        }


class DeploymentScenario:
    """Build and run one simulated Pando deployment."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.app = config.application
        self.scheduler = Scheduler()
        self.network = NetworkModel(
            default_profile=profile_for_setting(config.setting), seed=config.seed
        )
        self.metrics = MetricsCollector()
        self.public_server: Optional[PublicServer] = (
            PublicServer(self.scheduler, self.network)
            if config.resolved_public_server()
            else None
        )
        self.master = PandoMaster(
            bundle_function(
                self.app.processing_function(),
                name=self.app.name,
                application=self.app,
            ),
            config=MasterConfig(
                batch_size=config.resolved_batch_size(),
                transport=config.resolved_transport(),
                ordered=config.ordered,
                heartbeat_interval=config.heartbeat_interval,
                heartbeat_timeout=config.heartbeat_timeout,
                shards=config.shards,
                split_buffer=config.split_buffer,
            ),
            scheduler=self.scheduler,
            network=self.network,
            public_server=self.public_server,
            metrics=self.metrics,
            host="master",
        )
        self.volunteers: Dict[str, SimVolunteer] = {}
        #: every volunteer ever built, including replaced rejoin incarnations
        self.incarnations: List[SimVolunteer] = []
        self._rejoin_counts: Dict[str, int] = {}
        self._serve_url: Optional[str] = None
        self._stop = False
        #: virtual time at which the output sink completed / aborted, if any
        self.completed_virtual: Optional[float] = None
        self.aborted_virtual: Optional[float] = None
        self._wire_links()
        self._build_volunteers()

    # ------------------------------------------------------------- building
    def _wire_links(self) -> None:
        """Heterogeneous latency mixes: a device whose profile names a
        different setting than the deployment's gets a master link with that
        setting's latency profile (LAN workers next to WAN stragglers)."""
        default_setting = self.config.setting.lower()
        for profile in self.config.resolved_devices():
            setting = (profile.setting or default_setting).lower()
            if setting != default_setting:
                self.network.set_link(
                    self.master.host, profile.name, profile_for_setting(setting)
                )

    def _build_volunteers(self) -> None:
        for profile in self.config.resolved_devices():
            tabs = self.config.tabs.get(profile.name, profile.cores)
            volunteer = SimVolunteer(
                profile, self.scheduler, host=profile.name, tabs=tabs
            )
            self._prepare_device(volunteer)
            self.volunteers[profile.name] = volunteer
            self.incarnations.append(volunteer)

    def _prepare_device(self, volunteer: SimVolunteer) -> None:
        device = volunteer.device
        if self.config.task_chunk is not None:
            device.task_chunk = self.config.task_chunk
        device.stop_check = lambda: self._stop

    def _schedule_joins(self, url: str) -> None:
        self._serve_url = url
        for name, volunteer in self.volunteers.items():
            join_time = self.config.join_times.get(name, 0.0)
            if self.public_server is not None:
                self.scheduler.call_at(
                    join_time, volunteer.join_url, url, self.public_server
                )
            else:
                self.scheduler.call_at(join_time, volunteer.join, self.master)

    def _schedule_failures(self) -> None:
        schedule = self.config.failure_schedule
        if schedule is None:
            return
        departed: set = set()
        for event in schedule:
            name = event.worker_id
            if name not in self.volunteers:
                raise DeploymentError(
                    f"failure schedule references unknown device {name!r}"
                )
            if event.kind == "crash":
                self.scheduler.call_at(event.time, self._crash_volunteer, name)
                departed.add(name)
            elif event.kind == "leave":
                self.scheduler.call_at(event.time, self._leave_volunteer, name)
                departed.add(name)
            elif event.kind == "slowdown":
                self.scheduler.call_at(
                    event.time, self._slow_volunteer, name, event.factor
                )
            elif event.kind == "join":
                if name in departed:
                    # A join after a crash/leave is a *rejoin*: a fresh
                    # incarnation built at fire time (the master never
                    # reuses a worker id, so the device name is suffixed).
                    self.scheduler.call_at(event.time, self._rejoin_volunteer, name)
                else:
                    # A plain join only overrides the initial join time.
                    self.config.join_times[name] = event.time

    # The handlers below look the volunteer up at *fire* time, so churn
    # events always target the current incarnation of the named host.
    def _crash_volunteer(self, name: str) -> None:
        self.volunteers[name].crash()

    def _leave_volunteer(self, name: str) -> None:
        self.volunteers[name].leave()

    def _slow_volunteer(self, name: str, factor: float) -> None:
        self.volunteers[name].device.set_speed_factor(factor)

    def _rejoin_volunteer(self, name: str) -> None:
        previous = self.volunteers[name]
        count = self._rejoin_counts.get(name, 0) + 1
        self._rejoin_counts[name] = count
        tabs = self.config.tabs.get(name, previous.profile.cores)
        volunteer = SimVolunteer(
            previous.profile,
            self.scheduler,
            host=name,
            tabs=tabs,
            device_name=f"{name}+{count}",
        )
        self._prepare_device(volunteer)
        self.volunteers[name] = volunteer
        self.incarnations.append(volunteer)
        if self.public_server is not None and self._serve_url is not None:
            volunteer.join_url(self._serve_url, self.public_server)
        else:
            volunteer.join(self.master)

    # ------------------------------------------------------------- stopping
    def request_stop(self) -> None:
        """Ask every device to abandon work at its next chunk boundary."""
        self._stop = True

    @property
    def stop_requested(self) -> bool:
        return self._stop

    # ------------------------------------------------------------ execution
    def run_measurement(self) -> ScenarioResult:
        """Measure steady-state throughput over the configured window."""
        config = self.config
        inputs = (
            self.app.wrap_input(value) for value in self.app.generate_inputs(None)
        )
        url = self.master.serve()
        self._schedule_failures()
        self._schedule_joins(url)
        sink_result = pull(from_iterable(inputs), self.master, drain())

        # Warm-up, then measure.
        self.metrics.enabled = False
        self.scheduler.run_until(config.warmup)
        self.metrics.start_window(self.scheduler.now)
        self.scheduler.run_until(config.warmup + config.duration)
        self.metrics.end_window(self.scheduler.now)
        self.master.shutdown()

        report = self.metrics.report(self.app.name, config.setting)
        return self._result(report=report, outputs=None, completed_at=None)

    def run_to_completion(
        self,
        inputs: Iterable[Any],
        wrap: bool = True,
        max_virtual_time: float = 24 * 3600.0,
    ) -> ScenarioResult:
        """Process a finite input list until the output stream terminates."""
        values = [self.app.wrap_input(v) if wrap else v for v in inputs]
        url = self.master.serve()
        self._schedule_failures()
        self._schedule_joins(url)
        sink_result = pull(from_iterable(values), self.master, collect())

        self.metrics.start_window(self.scheduler.now)
        self.scheduler.run(
            until=lambda: sink_result.done or self.scheduler.now > max_virtual_time
        )
        self.metrics.end_window(self.scheduler.now)
        self.master.shutdown()

        if not sink_result.done:
            raise DeploymentError(
                "deployment stalled before completing its input stream "
                f"(processed {self.metrics.output_items} of {len(values)})"
            )
        report = self.metrics.report(self.app.name, self.config.setting)
        return self._result(
            report=report,
            outputs=list(sink_result.value),
            completed_at=self.scheduler.now,
        )

    def run_on_loop(
        self,
        inputs: Iterable[Any],
        wrap: bool = True,
        sink: Optional[Any] = None,
        timeout: Optional[float] = None,
        drain_for: float = 0.0,
    ):
        """Drive the deployment through a ``SimEventSource`` on the event loop.

        The simulation clock is registered with the map's
        :class:`~repro.sched.EventLoopScheduler` as an unpaced source, so
        virtual time advances as fast as the loop dispatches — and real
        (wall-clock) sources such as process pools attached to the master
        pump in the same rounds.  This is the scenario-matrix execution mode.

        *sink* defaults to ``collect()``; pass e.g. ``find(...)`` for abort
        scenarios.  *timeout* bounds the **wall-clock** run.  *drain_for*
        keeps simulating that much virtual time after the sink completes, so
        post-abort tails and pending heartbeat suspicions become observable.
        Returns the completed :class:`~repro.pullstream.sinks.SinkResult`
        (``scenario_result()`` builds the report afterwards).
        """
        values = [self.app.wrap_input(v) if wrap else v for v in inputs]
        url = self.master.serve()
        self._schedule_failures()
        self._schedule_joins(url)
        sink_result = pull(
            from_iterable(values),
            self.master,
            sink if sink is not None else collect(),
        )

        def stamp(result: Any) -> None:
            # Runs the instant the sink completes — inside the sim dispatch
            # for a volunteer-delivered value — so `now` is the virtual
            # completion/abort time.  An abort also requests the device
            # stop, which chunked tasks observe at their next boundary.
            self.completed_virtual = self.scheduler.now
            if result.aborted:
                self.aborted_virtual = self.scheduler.now
                self.request_stop()

        sink_result.on_done(stamp)
        self.metrics.start_window(self.scheduler.now)
        dmap = self.master.distributed_map
        dmap.scheduler.register_sim(self.scheduler)
        dmap.drive(sink_result, timeout=timeout)
        if drain_for > 0.0:
            self.scheduler.run_for(drain_for)
        self.metrics.end_window(self.scheduler.now)
        self.master.shutdown()
        return sink_result

    def scenario_result(self, sink_result: Any) -> ScenarioResult:
        """Build the :class:`ScenarioResult` for a finished ``run_on_loop``."""
        value = sink_result.value
        if value is None:
            outputs: Optional[List[Any]] = None
        elif isinstance(value, list):
            outputs = list(value)
        else:
            outputs = [value]
        report = self.metrics.report(self.app.name, self.config.setting)
        return self._result(
            report=report, outputs=outputs, completed_at=self.completed_virtual
        )

    # ------------------------------------------------------------- reporting
    def _result(
        self,
        report: Optional[ThroughputReport],
        outputs: Optional[List[Any]],
        completed_at: Optional[float],
    ) -> ScenarioResult:
        registry = {
            "joins": self.master.registry.joins,
            "crashes": self.master.registry.crashes,
            "leaves": self.master.registry.leaves,
            "volunteers": len(self.master.registry),
        }
        return ScenarioResult(
            report=report,
            outputs=outputs,
            completed_at=completed_at,
            lender_stats=self.master.stats.as_dict(),
            registry=registry,
            log=self.master.log,
            network_bytes=self.network.total_bytes(),
            scheduler_events=self.scheduler.events_processed,
        )
