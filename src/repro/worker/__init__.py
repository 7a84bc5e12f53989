"""Volunteer-side components: browser tabs, simulated and real volunteers.

The names resolve on first use: a live volunteer process imports
:mod:`repro.worker.ws_volunteer` alone, not the simulated tabs and devices.
"""

from typing import Any

from .. import _lazy

_EXPORTS = _lazy.by_name(
    {
        "worker": ("BrowserTab",),
        "volunteer": ("SimVolunteer",),
        "ws_volunteer": ("VolunteerReport", "run_volunteer", "spawn_volunteer_process"),
    }
)

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)
