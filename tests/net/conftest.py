"""Fixtures for the wire-level tests: a framing fed through a real endpoint."""

from __future__ import annotations

import select
import socket
from typing import Any, List, Sequence, Tuple

import pytest

from repro.net.endpoint import Endpoint


def _drain(endpoint: Endpoint) -> None:
    """Read until the endpoint's socket is empty (or its read side ended)."""
    while not endpoint.finished and select.select([endpoint], [], [], 0)[0]:
        endpoint.read()


def _read_stream(
    framing: Any, data: bytes, cuts: Sequence[int] = (), eof: bool = True
) -> Tuple[List[Any], bytes, Endpoint]:
    ours, theirs = socket.socketpair()
    with theirs:
        theirs.setblocking(False)
        endpoint = Endpoint(ours, framing)
        bounds = [0, *sorted(cuts), len(data)]
        for start, stop in zip(bounds, bounds[1:]):
            piece = memoryview(data)[start:stop]
            while piece and not endpoint.finished:
                try:
                    piece = piece[theirs.send(piece) :]
                except BlockingIOError:
                    pass
                _drain(endpoint)
        if eof:
            theirs.shutdown(socket.SHUT_WR)
            _drain(endpoint)
        written = bytearray()
        try:
            while chunk := theirs.recv(1 << 16):
                written += chunk
        except BlockingIOError:
            pass
        endpoint.close()
    return list(endpoint.inbox), bytes(written), endpoint


@pytest.fixture(scope="session")
def read_stream():
    """``read_stream(framing, data, cuts=(), eof=True) -> (filed, written,
    endpoint)``: *data* reaches an :class:`Endpoint` with *framing* over a
    socketpair in the pieces *cuts* split it into, each read as it arrives;
    then the far end hangs up.  *filed* is what the endpoint filed — every
    message, then the exception its stream ended with — and *written* what it
    sent back meanwhile (pongs, a close).  The endpoint comes back closed.
    (Session-scoped only so that hypothesis tests may use it: it keeps no
    state between calls.)"""
    return _read_stream
