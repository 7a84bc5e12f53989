"""Personal devices vs. server cores (paper section 5.5).

Computed from the calibrated device profiles.  How fast the reproduction
itself runs on the host is measured by ``perf/`` (see ``perf/README.md``),
not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..devices.profiles import (
    DeviceProfile,
    device_by_name,
)

__all__ = [
    "ComparisonRow",
    "single_core_rate",
    "device_vs_server",
    "cores_needed_to_match",
]


@dataclass
class ComparisonRow:
    """One device-vs-server comparison."""

    application: str
    personal_device: str
    personal_single_core: float
    server: str
    server_single_core: float
    #: personal cores needed to match one server core
    cores_to_match: float
    personal_wins_single_core: bool


def single_core_rate(device: DeviceProfile, application: str) -> float:
    """Single-core throughput of *device* for *application*."""
    return device.per_core_rate(application)


def cores_needed_to_match(
    personal: DeviceProfile, server: DeviceProfile, application: str
) -> float:
    """Number of *personal* cores needed to match one *server* core."""
    personal_rate = single_core_rate(personal, application)
    server_rate = single_core_rate(server, application)
    if personal_rate <= 0:
        return float("inf")
    return server_rate / personal_rate


def device_vs_server(
    application: str = "collatz",
    personal_names: Optional[List[str]] = None,
    server_names: Optional[List[str]] = None,
) -> List[ComparisonRow]:
    """Compare recent personal devices against server cores.

    Quantifies the paper's two Table-2 conclusions — "a single core from
    personal devices of 2016 sometimes provides higher throughput than older
    servers" and "2-5 cores on recent personal devices can outperform the
    fastest server core".  Defaults reproduce the paper's examples: iPhone SE
    and MacBook Pro 2016 against the slowest Grid5000 node (``uvb.sophia``),
    the fastest one (``dahu.grenoble``) and a PlanetLab node.
    """
    personal = [
        device_by_name(name)
        for name in (personal_names or ["iphone-se", "mbpro-2016"])
    ]
    servers = [
        device_by_name(name)
        for name in (
            server_names
            or ["uvb.sophia", "dahu.grenoble", "ple42.planet-lab.eu"]
        )
    ]
    rows: List[ComparisonRow] = []
    for personal_device in personal:
        if not personal_device.supports(application):
            continue
        for server in servers:
            if not server.supports(application):
                continue
            personal_rate = single_core_rate(personal_device, application)
            server_rate = single_core_rate(server, application)
            rows.append(
                ComparisonRow(
                    application=application,
                    personal_device=personal_device.name,
                    personal_single_core=personal_rate,
                    server=server.name,
                    server_single_core=server_rate,
                    cores_to_match=cores_needed_to_match(
                        personal_device, server, application
                    ),
                    personal_wins_single_core=personal_rate > server_rate,
                )
            )
    return rows
