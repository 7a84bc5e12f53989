"""Public signalling server (``pando-server`` equivalent).

When volunteers cannot reach the master directly (different networks, NAT),
Pando deploys a small public server — on Heroku's free tier or a Raspberry
Pi — whose only jobs are (1) serving the volunteer code at a public URL and
(2) relaying WebRTC signalling messages between a joining volunteer and the
master until their direct connection is established (paper section 2.4.3).
Since signalling requires little resources, the server never carries the
computation data itself (unless a channel explicitly falls back to relaying).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import SignallingError
from ..sim.network import NetworkModel
from ..sim.scheduler import Scheduler

__all__ = ["Deployment", "PublicServer"]


@dataclass
class Deployment:
    """One Pando deployment registered on the public server (one URL)."""

    deployment_id: str
    master_host: str
    url: str
    #: callback invoked (via the server) when a volunteer wants to join
    on_join_request: Callable[[str, Dict[str, Any]], None]
    volunteers: List[str] = field(default_factory=list)
    active: bool = True


class PublicServer:
    """Relays join requests and signalling messages between hosts.

    All exchanges with the server pay the network delay between the calling
    host and the server's host, so signalling over a WAN is visibly slower
    than over a LAN — matching the WebRTC setup cost the paper describes.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        network: NetworkModel,
        host: str = "public-server",
    ) -> None:
        self.scheduler = scheduler
        self.network = network
        self.host = host
        self._deployments: Dict[str, Deployment] = {}
        self._deployment_ids = itertools.count(1)
        self.signalling_messages = 0

    # ------------------------------------------------------------ master API
    def register_deployment(
        self,
        master_host: str,
        on_join_request: Callable[[str, Dict[str, Any]], None],
    ) -> Deployment:
        """Register a deployment and return its public URL record."""
        deployment_id = f"d{next(self._deployment_ids)}"
        deployment = Deployment(
            deployment_id=deployment_id,
            master_host=master_host,
            url=f"http://{self.host}/{deployment_id}",
            on_join_request=on_join_request,
        )
        self._deployments[deployment_id] = deployment
        return deployment

    def shutdown_deployment(self, deployment_id: str) -> None:
        """Remove a deployment (the tool shut down, paper DP1)."""
        deployment = self._deployments.get(deployment_id)
        if deployment is not None:
            deployment.active = False

    # --------------------------------------------------------- volunteer API
    def join(
        self,
        url: str,
        volunteer_host: str,
        info: Optional[Dict[str, Any]] = None,
        cb: Optional[Callable[[Optional[BaseException]], None]] = None,
    ) -> None:
        """A volunteer opens the deployment URL in its browser.

        The request travels volunteer -> server -> master; the master then
        initiates the actual data connection (WebSocket or WebRTC).
        """
        deployment = self._find(url)
        if deployment is None or not deployment.active:
            error = SignallingError(f"no active deployment at {url!r}")
            if cb is not None:
                cb(error)
            return
        to_server = self.network.delay(volunteer_host, self.host, 512)
        to_master = self.network.delay(self.host, deployment.master_host, 512)

        def reach_master() -> None:
            deployment.volunteers.append(volunteer_host)
            deployment.on_join_request(volunteer_host, dict(info or {}))
            if cb is not None:
                cb(None)

        self.scheduler.call_later(to_server + to_master, reach_master)

    # ------------------------------------------------------------ signalling
    def relay_signal(
        self,
        sender_host: str,
        receiver_host: str,
        payload: Any,
        deliver: Callable[[Any], None],
    ) -> None:
        """Relay one signalling message (offer/answer/ICE candidate)."""
        self.signalling_messages += 1
        delay = self.network.delay(sender_host, self.host, 256) + self.network.delay(
            self.host, receiver_host, 256
        )
        self.scheduler.call_later(delay, deliver, payload)

    # ------------------------------------------------------------- internals
    def _find(self, url: str) -> Optional[Deployment]:
        for deployment in self._deployments.values():
            if deployment.url == url:
                return deployment
        return None

    @property
    def deployments(self) -> Dict[str, Deployment]:
        return dict(self._deployments)
