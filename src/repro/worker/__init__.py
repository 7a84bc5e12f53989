"""Volunteer-side components: the simulated volunteer (one device and its
browser tabs) and the real websocket volunteer process.

The names resolve on first use: a live volunteer process imports
:mod:`repro.worker.ws_volunteer` alone, not the simulated volunteer.
"""

from typing import Any

from .. import _lazy

_EXPORTS = _lazy.by_name(
    {
        "volunteer": ("SimVolunteer",),
        "ws_volunteer": ("VolunteerReport", "run_volunteer", "spawn_volunteer_process"),
    }
)

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)
