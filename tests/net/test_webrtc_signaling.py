"""Tests for the public server that relays joins and WebRTC signalling.

A WebRTC connection's use of it is tested with the channel's transports in
``test_channel.py``.
"""

from __future__ import annotations


from repro.errors import SignallingError
from repro.net.signaling import PublicServer


class TestPublicServer:
    def test_register_deployment_returns_url(self, scheduler, network):
        server = PublicServer(scheduler, network)
        deployment = server.register_deployment("master", on_join_request=lambda h, i: None)
        assert deployment.url.startswith("http://public-server/")
        assert deployment.active

    def test_join_reaches_master(self, scheduler, network):
        server = PublicServer(scheduler, network)
        joins = []
        deployment = server.register_deployment(
            "master", on_join_request=lambda host, info: joins.append((host, info))
        )
        server.join(deployment.url, "phone", info={"tabs": 2})
        scheduler.run(until=lambda: bool(joins))
        assert joins[0][0] == "phone"
        assert joins[0][1]["tabs"] == 2
        assert "phone" in deployment.volunteers

    def test_join_unknown_url_fails(self, scheduler, network):
        server = PublicServer(scheduler, network)
        errors = []
        server.join("http://public-server/nope", "phone", cb=errors.append)
        assert isinstance(errors[0], SignallingError)

    def test_join_after_shutdown_fails(self, scheduler, network):
        server = PublicServer(scheduler, network)
        deployment = server.register_deployment("master", on_join_request=lambda h, i: None)
        server.shutdown_deployment(deployment.deployment_id)
        errors = []
        server.join(deployment.url, "phone", cb=errors.append)
        assert isinstance(errors[0], SignallingError)

    def test_relay_signal_charges_latency(self, scheduler, network):
        server = PublicServer(scheduler, network)
        delivered = []
        start = scheduler.now
        server.relay_signal("a", "b", {"sdp": "offer"}, delivered.append)
        scheduler.run(until=lambda: bool(delivered))
        assert delivered == [{"sdp": "offer"}]
        assert scheduler.now > start
        assert server.signalling_messages == 1
