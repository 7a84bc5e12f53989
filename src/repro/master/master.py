"""The Pando master process.

The master (paper Figure 7, "Master (Node.js)") owns the input and output
streams, runs the ``StreamLender``/``DistributedMap`` coordination, serves the
bundled worker code at a URL, accepts volunteers as they open that URL, and
wires each volunteer's channel — through a ``Limiter`` — to a fresh
sub-stream.  It is deliberately *not* a long-running service: one deployment
serves one user, one project, and shuts down when the stream completes
(design principle DP1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.distributed_map import DistributedMap, WorkerHandle
from ..devices.profiles import MASTER_DEVICE, DeviceProfile
from ..errors import DeploymentError, PandoError
from ..net.channel import SimChannel
from ..net.signaling import Deployment, PublicServer
from ..net.webrtc import WebRTCConnection
from ..net.websocket import WebSocketConnection
from ..pullstream import through
from ..pullstream.protocol import Source
from ..sim.metrics import MetricsCollector
from ..sim.network import NetworkModel
from ..sim.scheduler import Scheduler
from .bundler import Bundle, bundle_function
from .registry import VolunteerRegistry

__all__ = ["MasterConfig", "PandoMaster"]

TRANSPORTS = ("websocket", "webrtc")


@dataclass
class MasterConfig:
    """Startup options of a Pando deployment (command-line flags)."""

    #: number of inputs kept in flight per worker (``--batch-size``)
    batch_size: int = 2
    #: ``"websocket"`` or ``"webrtc"``
    transport: str = "websocket"
    #: deliver outputs in input order (False = unordered StreamLender variant)
    ordered: bool = True
    #: local port shown in the startup message
    port: int = 5000
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 3.0
    #: number of independent lender shards (``--shards``); 1 = single master
    shards: int = 1
    #: bounded split buffer per shard (requires ``shards > 1``)
    split_buffer: Optional[int] = None

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise DeploymentError(
                f"unknown transport {self.transport!r}; expected one of {TRANSPORTS}"
            )
        if self.batch_size < 1:
            raise DeploymentError("batch_size must be >= 1")
        if self.shards < 1:
            raise DeploymentError("shards must be >= 1")


class PandoMaster:
    """Coordinate a single Pando deployment.

    The master is a pull-stream *through*: place it between the input source
    and the output sink, exactly like the underlying
    :class:`~repro.core.distributed_map.DistributedMap`, then let volunteers
    join (either programmatically through :meth:`accept_volunteer` /
    :meth:`add_local_worker`, or through the simulated public server URL).
    """

    pull_role = "through"

    def __init__(
        self,
        bundle: Any,
        config: Optional[MasterConfig] = None,
        scheduler: Optional[Scheduler] = None,
        network: Optional[NetworkModel] = None,
        public_server: Optional[PublicServer] = None,
        metrics: Optional[MetricsCollector] = None,
        host: str = "master",
        device: DeviceProfile = MASTER_DEVICE,
    ) -> None:
        self.bundle: Bundle = (
            bundle if isinstance(bundle, Bundle) else bundle_function(bundle)
        )
        self.config = config or MasterConfig()
        self.scheduler = scheduler
        self.network = network
        self.public_server = public_server
        self.metrics = metrics or MetricsCollector()
        self.host = host
        self.device = device
        self.registry = VolunteerRegistry()
        # The map owns its EventLoopScheduler (the async pump driving pools
        # and SimEventSources); `scheduler` above is the discrete-event
        # simulation clock — different planes.
        self.distributed_map = DistributedMap(
            ordered=self.config.ordered,
            batch_size=self.config.batch_size,
            shards=self.config.shards,
            split_buffer=self.config.split_buffer,
        )
        # Fold the master's volunteer tallies into the map's stats snapshot,
        # so stats().as_dict() reports the volunteer plane alongside the
        # lender counters (simulated deployments have no ws gateway).
        self.distributed_map.attach_volunteer_registry(self.registry)
        self.deployment: Optional[Deployment] = None
        self.local_url = f"http://{self.host}:{self.config.port}"
        self._started = False
        self._log: List[str] = []

    # ----------------------------------------------------------- stream side
    def __call__(self, read: Source) -> Source:
        """Connect the input stream; the returned source yields the results."""
        self._started = True
        counted = through(on_value=lambda _value: self.metrics.record_output())(
            self.distributed_map(read)
        )
        return counted

    # ------------------------------------------------------------ deployment
    def serve(self) -> str:
        """Start serving the volunteer code and return the volunteer URL.

        Mirrors the paper's startup message ``Serving volunteer code at
        http://...:5000``.  When a public server is configured, the public URL
        is registered there and returned instead of the LAN one.
        """
        self._log.append(f"Serving volunteer code at {self.local_url}")
        if self.public_server is not None:
            self.deployment = self.public_server.register_deployment(
                master_host=self.host, on_join_request=self._join_via_server
            )
            self._log.append(f"Public deployment available at {self.deployment.url}")
            return self.deployment.url
        return self.local_url

    def shutdown(self) -> None:
        """End the deployment (DP1: the tool shuts down after its task)."""
        if self.public_server is not None and self.deployment is not None:
            self.public_server.shutdown_deployment(self.deployment.deployment_id)
        self._log.append("Deployment shut down")

    @property
    def log(self) -> List[str]:
        """Human-readable deployment log (startup messages, joins, crashes)."""
        return list(self._log)

    # ------------------------------------------------------------ volunteers
    def add_local_worker(
        self,
        fn: Optional[Callable] = None,
        worker_id: Optional[str] = None,
    ) -> WorkerHandle:
        """Attach an in-process worker running the bundle's function."""
        function = fn if fn is not None else self.bundle.apply
        return self.distributed_map.add_local_worker(function, worker_id=worker_id)

    def accept_volunteer(self, volunteer: Any, tabs: Optional[int] = None) -> None:
        """Accept a simulated volunteer: ship the bundle, open channels.

        *volunteer* must provide ``host``, ``device`` (a
        :class:`~repro.devices.device.SimDevice`) and ``attach_tab(index,
        endpoint, bundle, metrics)``; see
        :class:`~repro.worker.volunteer.SimVolunteer`.
        """
        if self.scheduler is None or self.network is None:
            raise DeploymentError(
                "accept_volunteer requires the master to be created with a "
                "scheduler and a network model (simulation mode)"
            )
        tabs = tabs if tabs is not None else len(volunteer.device.cores)
        record = self.registry.register(
            host=volunteer.host,
            device_name=volunteer.device.name,
            protocol=self.config.transport,
            joined_at=self.scheduler.now,
            tabs=tabs,
        )
        self._log.append(
            f"[{self.scheduler.now:10.3f}] volunteer {record.volunteer_id} "
            f"({volunteer.device.name}, {tabs} tab(s)) joining via {self.config.transport}"
        )

        # 1. the volunteer downloads the worker code bundle over HTTP
        download_delay = self.network.delay(
            self.host, volunteer.host, self.bundle.size_bytes
        )
        self.scheduler.call_later(
            download_delay, self._open_tabs, volunteer, record, tabs
        )

    def _join_via_server(self, volunteer_host: str, info: Dict[str, Any]) -> None:
        volunteer = info.get("volunteer")
        if volunteer is None:
            raise DeploymentError(
                f"join request from {volunteer_host} carried no volunteer object"
            )
        self.accept_volunteer(volunteer, tabs=info.get("tabs"))

    # -------------------------------------------------------------- channels
    def _open_tabs(self, volunteer: Any, record, tabs: int) -> None:
        for index in range(tabs):
            self._open_channel(volunteer, record, index)

    def _open_channel(self, volunteer: Any, record, tab_index: int) -> None:
        channel = self._make_channel(volunteer.host)

        def connected(err: Optional[BaseException], _channel: SimChannel) -> None:
            if err is not None:
                self._log.append(
                    f"[{self.scheduler.now:10.3f}] connection to "
                    f"{record.volunteer_id} tab {tab_index} failed: {err!r}"
                )
                return
            worker_id = f"{volunteer.device.name}#{tab_index}"
            try:
                handle = self.distributed_map.add_channel(
                    channel.local.duplex,
                    worker_id=worker_id,
                    batch_size=self.config.batch_size,
                )
            except PandoError:
                # The job terminated (completed or was aborted) while this
                # tab was still connecting — an early find() hit beats a
                # high-latency WAN handshake.  Turn the late volunteer away
                # instead of letting the error escape the event loop.
                self._log.append(
                    f"[{self.scheduler.now:10.3f}] worker {worker_id} "
                    f"connected after the job terminated; turned away"
                )
                channel.local.close("job-terminated")
                return
            channel.local.on_close(
                lambda reason: self._on_channel_closed(record, reason)
            )
            volunteer.attach_tab(tab_index, channel.remote, self.bundle, self.metrics)
            self._log.append(
                f"[{self.scheduler.now:10.3f}] worker {worker_id} connected "
                f"(batch={self.config.batch_size})"
            )

        channel.connect(connected)

    def _make_channel(self, volunteer_host: str) -> SimChannel:
        common = dict(
            heartbeat_interval=self.config.heartbeat_interval,
            heartbeat_timeout=self.config.heartbeat_timeout,
        )
        if self.config.transport == "webrtc":
            return WebRTCConnection(
                self.scheduler,
                self.network,
                local_host=self.host,
                remote_host=volunteer_host,
                signalling_server=self.public_server,
                **common,
            )
        return WebSocketConnection(
            self.scheduler,
            self.network,
            local_host=self.host,
            remote_host=volunteer_host,
            **common,
        )

    def _on_channel_closed(self, record, reason: Optional[BaseException]) -> None:
        crashed = reason is not None
        self.registry.mark_left(
            record.volunteer_id, self.scheduler.now, crashed=crashed
        )
        if crashed:
            self._log.append(
                f"[{self.scheduler.now:10.3f}] lost {record.volunteer_id} "
                f"({record.device_name}): {reason}"
            )

    # ------------------------------------------------------------ inspection
    @property
    def stats(self):
        """The underlying StreamLender statistics."""
        return self.distributed_map.stats

    @property
    def workers(self) -> Dict[str, WorkerHandle]:
        return self.distributed_map.workers

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<PandoMaster bundle={self.bundle.name!r} transport={self.config.transport} "
            f"batch={self.config.batch_size} volunteers={len(self.registry)}>"
        )
