"""The map's stats snapshot folds in the volunteer plane.

``DistributedMap.stats`` stays a drop-in proxy for the lender's counters
while adding a ``volunteers`` aggregation: join/leave/crash tallies from the
map's own :class:`~repro.master.registry.VolunteerRegistry` — where a
simulated deployment and every websocket gateway record their volunteers —
and connection counters from the gateways.
"""

from __future__ import annotations

from repro.core import DistributedMap


class TestMapRegistry:
    def test_tallies_fold_into_stats(self):
        dmap = DistributedMap()
        registry = dmap.registry
        first = registry.register(
            host="h1", device_name="laptop", protocol="websocket", joined_at=0.0
        )
        second = registry.register(
            host="h2", device_name="phone", protocol="websocket", joined_at=0.5
        )
        try:
            volunteers = dmap.stats.volunteers
            assert volunteers["joined"] == 2
            assert volunteers["active"] == 2
            registry.mark_left(first.volunteer_id, 1.0)
            registry.mark_left(second.volunteer_id, 2.0, crashed=True)
            volunteers = dmap.stats.volunteers
            assert volunteers["left"] == 1
            assert volunteers["crashed"] == 1
            assert volunteers["active"] == 0
        finally:
            dmap.close()

    def test_registry_counters_are_scrapeable(self):
        dmap = DistributedMap()
        dmap.registry.register(
            host="h", device_name="laptop", protocol="websocket", joined_at=0.0
        )
        try:
            text = dmap.obs.registry.render_prometheus()
            assert "pando_volunteers_joins_total 1" in text
            assert "pando_volunteers_leaves_total 0" in text
            assert "pando_volunteers_crashes_total 0" in text
        finally:
            dmap.close()

    def test_as_dict_keeps_the_lender_shape(self):
        dmap = DistributedMap()
        try:
            data = dmap.stats.as_dict()
            # Lender counters stay top-level (existing consumers), the
            # volunteer plane is one new sub-dict.
            assert data["values_read"] == 0
            assert data["volunteers"]["joined"] == 0
            assert dmap.stats.results_delivered == 0  # proxy still works
        finally:
            dmap.close()
