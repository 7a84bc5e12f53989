"""Registry of volunteers known to a master process.

Keeps track of every volunteer that ever joined a deployment, the state of
its connection, and aggregate join/leave/crash counters used by the
monitoring output ("Serving volunteer code at ...", join/leave log lines) and
by the benchmark reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["VolunteerRecord", "VolunteerRegistry"]


@dataclass
class VolunteerRecord:
    """State of one volunteer connection as seen by the master."""

    volunteer_id: str
    host: str
    device_name: str
    protocol: str
    joined_at: float
    left_at: Optional[float] = None
    crashed: bool = False
    tabs: int = 1
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def active(self) -> bool:
        return self.left_at is None


class VolunteerRegistry:
    """Mutable collection of :class:`VolunteerRecord`."""

    def __init__(self) -> None:
        self._records: Dict[str, VolunteerRecord] = {}
        self._ids = itertools.count(1)
        self.joins = 0
        self.leaves = 0
        self.crashes = 0

    def register(
        self,
        host: str,
        device_name: str,
        protocol: str,
        joined_at: float,
        tabs: int = 1,
        info: Optional[Dict[str, object]] = None,
    ) -> VolunteerRecord:
        """Record a new volunteer and return its record."""
        volunteer_id = f"volunteer-{next(self._ids)}"
        record = VolunteerRecord(
            volunteer_id=volunteer_id,
            host=host,
            device_name=device_name,
            protocol=protocol,
            joined_at=joined_at,
            tabs=tabs,
            info=dict(info or {}),
        )
        self._records[volunteer_id] = record
        self.joins += 1
        return record

    def mark_left(self, volunteer_id: str, timestamp: float, crashed: bool = False) -> bool:
        """Record the departure (graceful or crash) of a volunteer; False when
        it is unknown or its departure was already recorded."""
        record = self._records.get(volunteer_id)
        if record is None or record.left_at is not None:
            return False
        record.left_at = timestamp
        record.crashed = crashed
        if crashed:
            self.crashes += 1
        else:
            self.leaves += 1
        return True

    def get(self, volunteer_id: str) -> Optional[VolunteerRecord]:
        return self._records.get(volunteer_id)

    @property
    def records(self) -> List[VolunteerRecord]:
        return list(self._records.values())

    @property
    def active(self) -> List[VolunteerRecord]:
        return [record for record in self._records.values() if record.active]

    def __len__(self) -> int:
        return len(self._records)
