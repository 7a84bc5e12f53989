"""Network substrate: the simulated connection, signalling — and one real
wire.

:mod:`~repro.net.channel` replaces the browser WebSocket/WebRTC stacks of
the original Pando with one in-process connection that preserves the
properties Pando relies on — ordered duplex delivery, heartbeat-based
failure detection, connection setup cost, latency and bandwidth (see the
README's "Architecture map"); the two transports differ only in their row
of its setup table.  :mod:`~repro.net.ws_transport` is the exception: an
actual websocket server and client on real sockets, so external volunteer
processes join a live master over TCP; :mod:`~repro.net.endpoint` is the
master's end of any real worker's byte stream, a pool child's pipe included.
"""

from .serialization import (
    SizedPayload,
    decode_binary,
    decode_json,
    encode_binary,
    encode_json,
    estimate_size,
    oob_pack,
    oob_unpack,
)
from .shm_ring import ShmRing
from .heartbeat import DEFAULT_INTERVAL, DEFAULT_TIMEOUT, HeartbeatMonitor, LoopClock
from .channel import TRANSPORTS, ChannelEndpoint, SimChannel
from .signaling import Deployment, PublicServer
from .endpoint import Endpoint
from .ws_transport import (
    WsVolunteerGateway,
    pack_wire_frame,
    unpack_wire_frame,
)

__all__ = [
    "SizedPayload",
    "decode_binary",
    "decode_json",
    "encode_binary",
    "encode_json",
    "estimate_size",
    "oob_pack",
    "oob_unpack",
    "ShmRing",
    "DEFAULT_INTERVAL",
    "DEFAULT_TIMEOUT",
    "HeartbeatMonitor",
    "ChannelEndpoint",
    "SimChannel",
    "TRANSPORTS",
    "Deployment",
    "PublicServer",
    "Endpoint",
    "LoopClock",
    "WsVolunteerGateway",
    "pack_wire_frame",
    "unpack_wire_frame",
]
