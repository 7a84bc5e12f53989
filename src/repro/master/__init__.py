"""Pando master process: bundling and the volunteer registry."""

from .bundler import PANDO_PROTOCOL, Bundle, bundle_function, bundle_module
from .registry import VolunteerRecord, VolunteerRegistry

__all__ = [
    "PANDO_PROTOCOL",
    "Bundle",
    "bundle_function",
    "bundle_module",
    "VolunteerRecord",
    "VolunteerRegistry",
]
