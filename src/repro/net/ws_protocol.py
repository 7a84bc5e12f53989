"""What both ends of a volunteer's websocket agree on.

The session's control-record kinds around the codec's DATA and RESULT
(:data:`HELLO`, :data:`WELCOME`, :data:`END`, :data:`BYE`) and their schema
version, the RFC 6455 accept key and HTTP head parser of the upgrade, and
``ws://`` URLs.  A leaf: the gateway (:mod:`repro.net.ws_transport`) and the
volunteer process (:mod:`repro.worker.ws_volunteer`) both import it, and it
imports nothing of the package but its errors, so a volunteer that needs
these names does not load the master's side of the wire.
"""

from __future__ import annotations

import base64
import hashlib
from typing import Any, Dict, Tuple
from urllib.parse import urlsplit

from ..errors import PandoError

__all__ = [
    "BYE",
    "END",
    "HELLO",
    "WELCOME",
    "WIRE_VERSION",
    "accept_key",
    "head_lines",
    "parse_ws_url",
]

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Bump when the control-record schema changes incompatibly.
WIRE_VERSION = 1

# Control-record kinds of the volunteer session around the codec's DATA and
# RESULT.
HELLO = "hello"
WELCOME = "welcome"
END = "end"
BYE = "bye"


def accept_key(key: str) -> str:
    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def head_lines(head: Any) -> Tuple[str, Dict[str, str]]:
    """The start line and the (lower-cased) header fields of an HTTP head."""
    lines = bytes(head).decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return lines[0], headers


def parse_ws_url(url: str) -> Tuple[str, int, str]:
    """Split a ``ws://host:port/path`` URL into ``(host, port, path)``."""
    parts = urlsplit(url)
    if parts.scheme != "ws":
        raise PandoError(f"unsupported url {url!r}: only ws:// is implemented")
    if not parts.hostname:
        raise PandoError(f"url {url!r} has no host")
    return parts.hostname, parts.port or 80, parts.path or "/"
