"""Network latency/bandwidth models for the three deployment settings.

The paper evaluates Pando on a LAN (Wi-Fi to personal devices), a VPN
(Grid5000 nodes across France reached through INRIA's network) and a WAN
(PlanetLab EU nodes across Europe, reached through WebRTC).  Only two
network characteristics matter for Pando's throughput behaviour:

* the round-trip latency between master and volunteer, which is hidden by
  keeping ``batch_size`` inputs in flight (Limiter window);
* the transfer time of input/result payloads (relevant mostly for the
  image-processing application whose inputs are ~168 kB).

:class:`NetworkModel` maps a pair of hosts to a :class:`LinkProfile` and
computes per-message delivery delays, with optional jitter and loss of
connectivity (used by the failure injector).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "LinkProfile",
    "NetworkModel",
    "LAN_PROFILE",
    "VPN_PROFILE",
    "WAN_PROFILE",
    "LOOPBACK_PROFILE",
    "profile_for_setting",
]


@dataclass(frozen=True)
class LinkProfile:
    """Characteristics of a network path between two hosts."""

    name: str
    #: one-way base latency in seconds
    latency: float
    #: jitter amplitude in seconds (uniform, added to the base latency)
    jitter: float
    #: usable bandwidth in bytes per second
    bandwidth: float

    def one_way_delay(self, size_bytes: int, rng: Optional[random.Random] = None) -> float:
        """Delivery delay for a message of *size_bytes* bytes."""
        jitter = 0.0
        if self.jitter > 0:
            jitter = (rng or random).uniform(0.0, self.jitter)
        transfer = size_bytes / self.bandwidth if self.bandwidth > 0 else 0.0
        return self.latency + jitter + transfer

    @property
    def rtt(self) -> float:
        """Nominal round-trip time (ignoring payload size and jitter)."""
        return 2.0 * self.latency


#: Messages between co-located processes (master talking to itself).
LOOPBACK_PROFILE = LinkProfile(
    name="loopback", latency=0.00005, jitter=0.0, bandwidth=1e9
)

#: Wi-Fi local network between personal devices (paper section 5.2).
LAN_PROFILE = LinkProfile(
    name="lan", latency=0.002, jitter=0.001, bandwidth=30e6 / 8
)

#: VPN to Grid5000 over INRIA's network: low tens of milliseconds RTT,
#: well-provisioned links (paper section 5.3).
VPN_PROFILE = LinkProfile(
    name="vpn", latency=0.010, jitter=0.004, bandwidth=50e6 / 8
)

#: WAN to PlanetLab EU nodes over WebRTC: tens to low hundreds of
#: milliseconds RTT and more jitter (paper section 5.4).
WAN_PROFILE = LinkProfile(name="wan", latency=0.045, jitter=0.020, bandwidth=10e6 / 8)


def profile_for_setting(setting: str) -> LinkProfile:
    """Return the canonical profile for ``"lan"``, ``"vpn"``, ``"wan"`` or ``"loopback"``."""
    profiles = {
        "lan": LAN_PROFILE,
        "vpn": VPN_PROFILE,
        "wan": WAN_PROFILE,
        "loopback": LOOPBACK_PROFILE,
    }
    try:
        return profiles[setting.lower()]
    except KeyError:
        raise ValueError(
            f"unknown network setting {setting!r}; expected one of {sorted(profiles)}"
        ) from None


class NetworkModel:
    """Compute message delays between named hosts.

    A default profile applies to every pair unless a more specific link was
    registered with :meth:`set_link`.  The model also tracks byte counters per
    link for the bench reports.
    """

    def __init__(
        self,
        default_profile: LinkProfile = LAN_PROFILE,
        seed: Optional[int] = None,
    ) -> None:
        self.default_profile = default_profile
        self._links: Dict[Tuple[str, str], LinkProfile] = {}
        self._rng = random.Random(seed)
        self.bytes_sent: Dict[Tuple[str, str], int] = {}
        self.messages_sent: Dict[Tuple[str, str], int] = {}
        #: ids of the channels opened over this network, so a seeded run
        #: labels its connections the same whatever ran before it
        self.channel_ids = itertools.count()

    def set_link(self, host_a: str, host_b: str, profile: LinkProfile) -> None:
        """Register a specific *profile* for the pair (order-independent)."""
        self._links[self._key(host_a, host_b)] = profile

    def profile(self, host_a: str, host_b: str) -> LinkProfile:
        """Profile in effect between two hosts."""
        if host_a == host_b:
            return LOOPBACK_PROFILE
        return self._links.get(self._key(host_a, host_b), self.default_profile)

    def delay(self, sender: str, receiver: str, size_bytes: int) -> float:
        """One-way delay for a message of *size_bytes* from *sender* to *receiver*."""
        profile = self.profile(sender, receiver)
        key = self._key(sender, receiver)
        self.bytes_sent[key] = self.bytes_sent.get(key, 0) + size_bytes
        self.messages_sent[key] = self.messages_sent.get(key, 0) + 1
        return profile.one_way_delay(size_bytes, self._rng)

    @staticmethod
    def _key(host_a: str, host_b: str) -> Tuple[str, str]:
        return (host_a, host_b) if host_a <= host_b else (host_b, host_a)

    def total_bytes(self) -> int:
        """Total payload bytes carried by the network so far."""
        return sum(self.bytes_sent.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<NetworkModel default={self.default_profile.name} "
            f"links={len(self._links)} bytes={self.total_bytes()}>"
        )
