"""The Table-2 device catalogue: each device's cores and calibrated rates."""

from .profiles import (
    ALL_DEVICES,
    APPLICATIONS,
    APPLICATION_UNITS,
    DeviceProfile,
    LAN_DEVICES,
    MASTER_DEVICE,
    VPN_DEVICES,
    WAN_DEVICES,
    device_by_name,
    devices_for_setting,
)

__all__ = [
    "ALL_DEVICES",
    "APPLICATIONS",
    "APPLICATION_UNITS",
    "DeviceProfile",
    "LAN_DEVICES",
    "MASTER_DEVICE",
    "VPN_DEVICES",
    "WAN_DEVICES",
    "device_by_name",
    "devices_for_setting",
]
