"""Network substrate: simulated channels, transports, signalling, NAT — and
one real wire.

Most of these modules replace the browser WebSocket/WebRTC stacks of the
original Pando with in-process equivalents that preserve the properties
Pando relies on — ordered duplex delivery, heartbeat-based failure
detection, connection setup cost, latency and bandwidth (see DESIGN.md,
substitution table).  :mod:`~repro.net.ws_transport` is the exception: an
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
from .message import CLOSE, CONTROL, DATA, HEARTBEAT, Message
from .heartbeat import DEFAULT_INTERVAL, DEFAULT_TIMEOUT, HeartbeatMonitor, LoopClock
from .channel import ChannelEndpoint, SimChannel
from .websocket import WebSocketConnection
from .webrtc import WebRTCConnection
from .signaling import Deployment, PublicServer
from .nat import NATConfig, NATModel
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
    "CLOSE",
    "CONTROL",
    "DATA",
    "HEARTBEAT",
    "Message",
    "DEFAULT_INTERVAL",
    "DEFAULT_TIMEOUT",
    "HeartbeatMonitor",
    "ChannelEndpoint",
    "SimChannel",
    "WebSocketConnection",
    "WebRTCConnection",
    "Deployment",
    "PublicServer",
    "NATConfig",
    "NATModel",
    "Endpoint",
    "LoopClock",
    "WsVolunteerGateway",
    "pack_wire_frame",
    "unpack_wire_frame",
]
