"""Deployment scenarios: build and run complete simulated Pando deployments.

A :class:`DeploymentScenario` assembles every piece of the system — the
master's :class:`~repro.core.distributed_map.DistributedMap`, public server,
volunteers with their devices, network model, failure schedule — for one of
the paper's three settings (LAN, VPN, WAN) and runs it in virtual time.  The
scenario is also the deployment's master side (paper Figure 7): it serves the
bundled worker code, accepts each volunteer that opens its URL into the map's
volunteer registry, and wires one simulated channel per browser tab, through
the map's ``Limiter``, to a fresh sub-stream.  Three modes are provided:

* :meth:`DeploymentScenario.run_measurement` reproduces the paper's
  methodology (section 5.1): an effectively infinite input stream is
  processed for a fixed measurement window after a warm-up, and per-worker
  throughput is derived from the number of items each worker completed —
  this regenerates the rows of Table 2;
* :meth:`DeploymentScenario.run_to_completion` processes a finite list of
  inputs until the output stream ends — used by integration tests, the
  Figure-4 deployment example and the fault-tolerance experiments;
* :meth:`DeploymentScenario.run_on_loop` steps the simulation as a source
  of the map's event loop, beside real process pools — the scenario
  matrix's mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..apps.base import Application
from ..core.distributed_map import DistributedMap
from ..devices.profiles import DeviceProfile, devices_for_setting
from ..errors import DeploymentError, PandoError
from ..master.bundler import bundle_function
from ..master.registry import VolunteerRecord
from ..net.signaling import Deployment, PublicServer
from ..net.webrtc import WebRTCConnection
from ..net.websocket import WebSocketConnection
from ..pullstream import collect, drain, from_iterable, pull, through
from ..pullstream.sinks import SinkResult
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
#: transports a deployment can open its volunteer channels with
TRANSPORTS = ("websocket", "webrtc")
#: the master's host in the network model, and the URL it serves on the LAN
MASTER_HOST = "master"
LOCAL_URL = f"http://{MASTER_HOST}:5000"


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

    def __post_init__(self) -> None:
        transport = self.resolved_transport()
        if transport not in TRANSPORTS:
            raise DeploymentError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        if self.resolved_batch_size() < 1:
            raise DeploymentError("batch_size must be >= 1")
        if self.shards < 1:
            raise DeploymentError("shards must be >= 1")

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
        self.transport = config.resolved_transport()
        self.batch_size = config.resolved_batch_size()
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
        self.bundle = bundle_function(
            self.app.processing_function(), name=self.app.name, application=self.app
        )
        # The map owns its EventLoopScheduler (the async pump driving pools
        # and SimEventSources); `self.scheduler` is the discrete-event
        # simulation clock — different planes.
        self.dmap = DistributedMap(
            ordered=config.ordered,
            batch_size=self.batch_size,
            shards=config.shards,
            split_buffer=config.split_buffer,
        )
        #: human-readable deployment log (startup messages, joins, crashes)
        self.log: List[str] = []
        #: the public-server registration, once :meth:`serve` made one
        self.deployment: Optional[Deployment] = None
        self.volunteers: Dict[str, SimVolunteer] = {}
        #: every volunteer ever built, including replaced rejoin incarnations
        self.incarnations: List[SimVolunteer] = []
        self._rejoin_counts: Dict[str, int] = {}
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
                    MASTER_HOST, profile.name, profile_for_setting(setting)
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
        for name, volunteer in self.volunteers.items():
            join_time = self.config.join_times.get(name, 0.0)
            if self.public_server is not None:
                self.scheduler.call_at(
                    join_time, volunteer.join_url, url, self.public_server
                )
            else:
                self.scheduler.call_at(join_time, volunteer.join, self)

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
        if self.deployment is not None:
            volunteer.join_url(self.deployment.url, self.public_server)
        else:
            volunteer.join(self)

    # ----------------------------------------------------------- master side
    def serve(self) -> str:
        """Start serving the volunteer code and return the volunteer URL.

        Mirrors the paper's startup message ``Serving volunteer code at
        http://...:5000``.  With a public server, the deployment is
        registered there and its public URL is returned instead of the LAN
        one.
        """
        self.log.append(f"Serving volunteer code at {LOCAL_URL}")
        if self.public_server is None:
            return LOCAL_URL
        self.deployment = self.public_server.register_deployment(
            master_host=MASTER_HOST,
            on_join_request=lambda _host, info: self.accept_volunteer(info["volunteer"]),
        )
        self.log.append(f"Public deployment available at {self.deployment.url}")
        return self.deployment.url

    def shutdown(self) -> None:
        """End the deployment (DP1: the tool shuts down after its task)."""
        if self.deployment is not None:
            self.public_server.shutdown_deployment(self.deployment.deployment_id)
        self.log.append("Deployment shut down")

    def accept_volunteer(self, volunteer: SimVolunteer) -> None:
        """Register *volunteer*, ship it the bundle, then open its tabs."""
        tabs = volunteer.requested_tabs
        record = self.dmap.registry.register(
            host=volunteer.host,
            device_name=volunteer.device.name,
            protocol=self.transport,
            joined_at=self.scheduler.now,
            tabs=tabs,
        )
        self.log.append(
            f"[{self.scheduler.now:10.3f}] volunteer {record.volunteer_id} "
            f"({volunteer.device.name}, {tabs} tab(s)) joining via {self.transport}"
        )
        # The volunteer downloads the worker code bundle over HTTP first.
        download_delay = self.network.delay(
            MASTER_HOST, volunteer.host, self.bundle.size_bytes
        )
        self.scheduler.call_later(download_delay, self._open_tabs, volunteer, record)

    def _open_tabs(self, volunteer: SimVolunteer, record: VolunteerRecord) -> None:
        for index in range(record.tabs):
            self._open_channel(volunteer, record, index)

    def _open_channel(
        self, volunteer: SimVolunteer, record: VolunteerRecord, tab_index: int
    ) -> None:
        options = dict(
            local_host=MASTER_HOST,
            remote_host=volunteer.host,
            heartbeat_interval=self.config.heartbeat_interval,
            heartbeat_timeout=self.config.heartbeat_timeout,
        )
        if self.transport == "webrtc":
            channel = WebRTCConnection(
                self.scheduler, self.network, signalling_server=self.public_server, **options
            )
        else:
            channel = WebSocketConnection(self.scheduler, self.network, **options)

        def connected(err: Optional[BaseException], _channel: Any) -> None:
            if err is not None:
                self.log.append(
                    f"[{self.scheduler.now:10.3f}] connection to "
                    f"{record.volunteer_id} tab {tab_index} failed: {err!r}"
                )
                return
            worker_id = f"{volunteer.device.name}#{tab_index}"
            try:
                self.dmap.add_channel(
                    channel.local.duplex, worker_id=worker_id, batch_size=self.batch_size
                )
            except PandoError:
                # The job terminated (completed or was aborted) while this
                # tab was still connecting — an early find() hit beats a
                # high-latency WAN handshake.  Turn the late volunteer away
                # instead of letting the error escape the event loop.
                self.log.append(
                    f"[{self.scheduler.now:10.3f}] worker {worker_id} "
                    f"connected after the job terminated; turned away"
                )
                channel.local.close("job-terminated")
                return
            channel.local.on_close(
                lambda reason: self._on_channel_closed(record, reason)
            )
            volunteer.attach_tab(tab_index, channel.remote, self.bundle, self.metrics)
            self.log.append(
                f"[{self.scheduler.now:10.3f}] worker {worker_id} connected "
                f"(batch={self.batch_size})"
            )

        channel.connect(connected)

    def _on_channel_closed(
        self, record: VolunteerRecord, reason: Optional[BaseException]
    ) -> None:
        crashed = reason is not None
        self.dmap.registry.mark_left(
            record.volunteer_id, self.scheduler.now, crashed=crashed
        )
        if crashed:
            self.log.append(
                f"[{self.scheduler.now:10.3f}] lost {record.volunteer_id} "
                f"({record.device_name}): {reason}"
            )

    # ------------------------------------------------------------- stopping
    def request_stop(self) -> None:
        """Ask every device to abandon work at its next chunk boundary."""
        self._stop = True

    @property
    def stop_requested(self) -> bool:
        return self._stop

    # ------------------------------------------------------------ execution
    def _start(self, inputs: Iterable[Any], sink: Any) -> SinkResult:
        """Serve, schedule churn and joins, and pull *inputs* through the map
        and the output counter into *sink*."""
        url = self.serve()
        self._schedule_failures()
        self._schedule_joins(url)
        counted = through(on_value=lambda _value: self.metrics.record_output())
        return pull(from_iterable(inputs), self.dmap, counted, sink)

    def run_measurement(self) -> ScenarioResult:
        """Measure steady-state throughput over the configured window."""
        config = self.config
        inputs = (
            self.app.wrap_input(value) for value in self.app.generate_inputs(None)
        )
        self._start(inputs, drain())

        # Warm-up, then measure.
        self.metrics.enabled = False
        self.scheduler.run_until(config.warmup)
        self.metrics.start_window(self.scheduler.now)
        self.scheduler.run_until(config.warmup + config.duration)
        self.metrics.end_window(self.scheduler.now)
        self.shutdown()

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
        sink_result = self._start(values, collect())

        self.metrics.start_window(self.scheduler.now)
        self.scheduler.run(
            until=lambda: sink_result.done or self.scheduler.now > max_virtual_time
        )
        self.metrics.end_window(self.scheduler.now)
        self.shutdown()

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
        sink_result = self._start(values, sink if sink is not None else collect())

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
        self.dmap.scheduler.register_sim(self.scheduler)
        self.dmap.drive(sink_result, timeout=timeout)
        if drain_for > 0.0:
            self.scheduler.run_for(drain_for)
        self.metrics.end_window(self.scheduler.now)
        self.shutdown()
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
        volunteers = self.dmap.registry
        registry = {
            "joins": volunteers.joins,
            "crashes": volunteers.crashes,
            "leaves": volunteers.leaves,
            "volunteers": len(volunteers),
        }
        return ScenarioResult(
            report=report,
            outputs=outputs,
            completed_at=completed_at,
            lender_stats=self.dmap.stats.as_dict(),
            registry=registry,
            log=list(self.log),
            network_bytes=self.network.total_bytes(),
            scheduler_events=self.scheduler.events_processed,
        )
