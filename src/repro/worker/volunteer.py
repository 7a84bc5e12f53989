"""Simulated volunteers: devices that contribute compute to a deployment.

:class:`SimVolunteer` owns a simulated device and opens one browser tab per
core it contributes (the paper uses "the minimum number of cores that
provided close to the maximum performance", listed in Table 2).  Joining a
deployment mirrors the paper's workflow: open the URL, download the worker
code, establish a WebSocket or WebRTC channel per tab, process values until
the stream ends, the device crashes, or the volunteer leaves.  The real
volunteer, an OS process on an actual websocket, is
:mod:`repro.worker.ws_volunteer`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..devices.device import SimDevice
from ..devices.profiles import DeviceProfile
from ..master.bundler import Bundle
from ..net.channel import ChannelEndpoint
from ..net.signaling import PublicServer
from ..sim.metrics import MetricsCollector
from ..sim.scheduler import Scheduler
from .worker import BrowserTab

__all__ = ["SimVolunteer"]


class SimVolunteer:
    """A volunteer contributing the browser tabs of one device."""

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
        self.device = SimDevice(profile, scheduler, name=device_name)
        self.requested_tabs = tabs if tabs is not None else profile.cores
        self.tabs: Dict[int, BrowserTab] = {}
        self.joined = False
        self.crashed = False
        self.left = False
        self.device.on_crash(lambda _device: self._crash_tabs())

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
    ) -> BrowserTab:
        """Called by the master once a channel for one tab is established."""
        tab = self.tabs.get(tab_index)
        if tab is None:
            tab = BrowserTab(self.device, tab_index)
            self.tabs[tab_index] = tab
        if self.crashed:
            # The device crashed while the connection was being established.
            endpoint.crash()
            return tab
        if self.left:
            # The volunteer left while the connection was being established:
            # the late tab says goodbye like the others did.
            endpoint.close()
            return tab
        tab.attach(endpoint, bundle, metrics)
        return tab

    # --------------------------------------------------------------- failure
    def crash(self) -> None:
        """Crash-stop the whole device: every tab goes silent at once."""
        if self.crashed:
            return
        self.crashed = True
        self.device.crash()

    def leave(self) -> None:
        """Leave gracefully: close every tab so the master is notified."""
        self.left = True
        for tab in self.tabs.values():
            tab.close()

    def _crash_tabs(self) -> None:
        self.crashed = True
        for tab in self.tabs.values():
            tab.crash()

    # ----------------------------------------------------------- inspection
    @property
    def items_processed(self) -> int:
        """Total values processed across this volunteer's tabs."""
        return sum(tab.items_processed for tab in self.tabs.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = (
            "crashed" if self.crashed
            else "left" if self.left
            else "joined" if self.joined
            else "idle"
        )
        return (
            f"<SimVolunteer {self.profile.name} {state} tabs={len(self.tabs)} "
            f"processed={self.items_processed}>"
        )
