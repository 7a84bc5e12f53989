"""Network substrate: the simulated connection, signalling — and one real
wire.

:mod:`~repro.net.channel` replaces the browser WebSocket/WebRTC stacks of
the original Pando with one in-process connection that preserves the
properties Pando relies on — ordered duplex delivery, heartbeat-based
failure detection, connection setup cost, latency and bandwidth (see the
README's "Architecture map"); the two transports differ only in their row
of its setup table.  :mod:`~repro.net.ws_transport` is the exception: an
actual websocket server on real sockets, so external volunteer processes
join a live master over TCP; :mod:`~repro.net.endpoint` is either end of any
real worker's byte stream, a pool child's pipe included.  The names resolve
on first use: a volunteer imports the endpoint and the codec, not the
gateway or the simulation.
"""

from typing import Any

from .. import _lazy

_EXPORTS = _lazy.by_name(
    {
        "serialization": (
            "SizedPayload",
            "decode_binary",
            "decode_json",
            "encode_binary",
            "encode_json",
            "estimate_size",
            "oob_pack",
            "oob_unpack",
        ),
        "shm_ring": ("ShmRing",),
        "heartbeat": ("DEFAULT_INTERVAL", "DEFAULT_TIMEOUT", "HeartbeatMonitor"),
        "channel": ("ChannelEndpoint", "SimChannel", "TRANSPORTS"),
        "signaling": ("Deployment", "PublicServer"),
        "endpoint": ("Endpoint",),
        "ws_transport": ("WsVolunteerGateway", "pack_wire_frame", "unpack_wire_frame"),
    }
)

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)
