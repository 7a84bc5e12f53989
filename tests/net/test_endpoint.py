"""The endpoint: one incremental read path, one outbox, two framings.

However a valid byte stream is cut on its way in, the endpoint files the same
messages, answers the same pings and refuses at the same place; a read never
waits for the rest of a message; a write never waits for the peer.  Then the
tooling pin: nothing under ``net/`` or ``worker/`` goes back to asyncio's
stream pair, a thread or an executor for what the selector does.
"""

from __future__ import annotations

import ast
import pathlib
import select
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net import wire
from repro.net.endpoint import (
    OP_BINARY,
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_PONG,
    PIPE,
    STAGING_BYTES,
    WS,
    Endpoint,
    _apply_mask,
)
from repro.net.serialization import Batch

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
MAX_FRAME = 100_000


def ws_frame(opcode: int, payload: bytes, fin: bool = True, key: bytes = b"") -> bytes:
    """One hand-built frame, masked with *key* when given."""
    head = bytes([(0x80 if fin else 0) | opcode])
    mask_bit = 0x80 if key else 0
    if len(payload) < 126:
        head += bytes([mask_bit | len(payload)])
    elif len(payload) < 1 << 16:
        head += bytes([mask_bit | 126]) + struct.pack("!H", len(payload))
    else:
        head += bytes([mask_bit | 127]) + struct.pack("!Q", len(payload))
    body = bytearray(payload)
    if key:
        _apply_mask(body, key)
    return head + key + bytes(body)


def control_frames(written: bytes, masked: bool):
    """``[(opcode, payload)]`` of the small frames an endpoint wrote back."""
    frames, at = [], 0
    while at < len(written):
        opcode, length = written[at] & 0x0F, written[at + 1] & 0x7F
        assert written[at] & 0x80 and length < 126
        assert bool(written[at + 1] & 0x80) == masked
        at += 2
        body = bytearray(written[at + 4 * masked : at + 4 * masked + length])
        if masked:
            _apply_mask(body, written[at : at + 4])
        frames.append((opcode, bytes(body)))
        at += 4 * masked + length
    return frames


def outcome(read_stream, framing, data, cuts, masked_replies=False):
    """What the stream amounted to, in a form two chunkings can be compared
    by: the messages, how it ended, what was answered."""
    filed, written, _endpoint = read_stream(framing, data, cuts)
    *messages, end = filed
    assert not any(isinstance(message, Exception) for message in messages)
    return (
        [bytes(message) for message in messages],
        (type(end), str(end)),
        control_frames(written, masked_replies) if isinstance(framing, WS) else written,
    )


# --------------------------------------------------------------------------
# Every chunking reads the same stream
# --------------------------------------------------------------------------

#: payload sizes on both sides of every length form and of the staging buffer
sizes = st.sampled_from([0, 1, 5, 125, 126, 300, 65535, 65536, STAGING_BYTES - 8, 70_000])
blob = st.builds(lambda size, fill: bytes([fill]) * size, sizes, st.integers(0, 255))
small = st.binary(max_size=125)

ws_event = st.one_of(
    st.tuples(st.just("message"), st.lists(blob, min_size=1, max_size=3)),  # its fragments
    st.tuples(st.just("ping"), small),
    st.tuples(st.just("pong"), small),
)
ws_ending = st.sampled_from(["eof", "close", "oversized", "wrong mask", "orphan continuation"])


def ws_stream(events, ending, key):
    """The bytes of *events* as the peer would send them, and what they must
    amount to: ``(data, messages, pongs, refused)``."""
    data, messages, pongs = b"", [], []
    for kind, body in events:
        if kind == "message":
            if sum(map(len, body)) > MAX_FRAME:
                body = body[:1]
            for index, piece in enumerate(body):
                opcode = OP_BINARY if index == 0 else OP_CONT
                data += ws_frame(opcode, piece, fin=index == len(body) - 1, key=key)
            messages.append(b"".join(body))
        elif kind == "ping":
            data += ws_frame(OP_PING, body, key=key)
            pongs.append((OP_PONG, body))
        else:
            data += ws_frame(OP_PONG, body, key=key)
    if ending == "close":
        data += ws_frame(OP_CLOSE, struct.pack("!H", 1000), key=key)
        pongs.append((OP_CLOSE, struct.pack("!H", 1000)))
    elif ending == "oversized":
        data += ws_frame(OP_BINARY, b"x" * (MAX_FRAME + 1), key=key)[:64]  # the header is enough
    elif ending == "wrong mask":
        data += ws_frame(OP_BINARY, b"x", key=b"" if key else b"\x01\x02\x03\x04")
    elif ending == "orphan continuation":
        data += ws_frame(OP_CONT, b"x", key=key)
    refused = ending in ("oversized", "wrong mask", "orphan continuation")
    if refused:
        pongs.append((OP_CLOSE, struct.pack("!H", 1002)))
    return data, messages, pongs, refused


class TestEveryChunkingReadsTheSameStream:
    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(ws_event, max_size=6),
        ending=ws_ending,
        client_side=st.booleans(),
        cuts=st.lists(st.integers(0, 1 << 20), max_size=8),
    )
    def test_ws(self, events, ending, client_side, cuts, read_stream):
        # a client reads unmasked frames and masks its answers; a server the reverse
        key = b"" if client_side else b"\xa1\xb2\xc3\xd4"
        data, messages, answers, refused = ws_stream(events, ending, key)
        cuts = [cut % (len(data) + 1) for cut in cuts]

        def run(cuts):
            return outcome(
                read_stream, WS(client_side, max_frame=MAX_FRAME), data, cuts, client_side
            )

        whole = run(())
        assert whole[0] == messages
        assert whole[1][0] is (ProtocolError if refused else EOFError)
        assert whole[2] == answers
        assert run(cuts) == whole
        assert run(range(1, min(len(data), 40))) == whole  # byte by byte through the headers

    @settings(max_examples=40, deadline=None)
    @given(
        payloads=st.lists(blob, max_size=6),
        cuts=st.lists(st.integers(0, 1 << 20), max_size=8),
        truncate=st.integers(0, 20),
    )
    def test_pipe(self, payloads, cuts, truncate, read_stream):
        data = b"".join(b"".join(wire.pipe_message([payload])) for payload in payloads)
        data = data[: max(0, len(data) - truncate)]
        cuts = [cut % (len(data) + 1) for cut in cuts]
        whole = outcome(read_stream, PIPE, data, ())
        # only whole messages are filed, a cut-off tail never is
        arrived, expected = 0, []
        for payload in payloads:
            arrived += 8 + len(payload)
            if arrived <= len(data):
                expected.append(payload)
        assert whole[0] == expected and whole[1][0] is EOFError
        assert outcome(read_stream, PIPE, data, cuts) == whole
        assert outcome(read_stream, PIPE, data, range(1, min(len(data), 24))) == whole


# --------------------------------------------------------------------------
# A read never waits
# --------------------------------------------------------------------------


class TestAReadNeverWaits:
    """One slow peer must not hold the loop: half a message is read as half
    a message, at once, and nothing is filed until the rest arrives."""

    @pytest.mark.parametrize(
        "framing, message",
        [
            (lambda: PIPE, b"".join(wire.pipe_message([b"r" * 300_000]))),
            (lambda: WS(client_side=True), ws_frame(OP_BINARY, b"r" * 300_000)),
        ],
        ids=["pipe", "ws"],
    )
    def test_half_a_message_files_nothing_and_returns_at_once(self, framing, message):
        ours, theirs = socket.socketpair()
        with theirs:
            endpoint = Endpoint(ours, framing())
            try:
                theirs.sendall(message[: len(message) // 2])  # prefix and half a body
                while select.select([endpoint], [], [], 0)[0]:
                    assert endpoint.read() is False
                assert endpoint.read() is False  # nothing there: no wait, no message
                assert not endpoint.inbox and not endpoint.finished
                theirs.setblocking(False)
                rest = memoryview(message)[len(message) // 2 :]
                while rest or select.select([endpoint], [], [], 0)[0]:
                    if rest:
                        try:
                            rest = rest[theirs.send(rest) :]
                        except BlockingIOError:
                            pass
                    endpoint.read()
                assert [bytes(item) for item in endpoint.inbox] == [b"r" * 300_000]
            finally:
                endpoint.close()


# --------------------------------------------------------------------------
# A write never waits
# --------------------------------------------------------------------------


class TestTheOutbox:
    def test_a_peer_that_does_not_read_blocks_nobody(self):
        ours, theirs = socket.socketpair()
        with theirs:
            endpoint = Endpoint(ours, PIPE)
            try:
                tiles = [bytes([index]) * 600_000 for index in range(4)]
                frames = [endpoint.send_frame(Batch([tile]), None, "pipe") for tile in tiles]
                assert [frame.seq for frame in frames] == [1, 2, 3, 4]
                assert list(endpoint.frames) == frames  # all in flight, none waited for
                assert endpoint.outbox and not endpoint.flush()  # the pipe is full
                # the peer reads at last: flush() resumes in the middle of a buffer
                received = bytearray()
                theirs.setblocking(False)
                while endpoint.outbox or select.select([theirs], [], [], 0)[0]:
                    try:
                        received += theirs.recv(1 << 16)
                    except BlockingIOError:
                        pass
                    endpoint.flush()
                view, got = memoryview(received), []
                while view:
                    (size,) = wire.PIPE_LENGTH.unpack_from(view)
                    got.append(wire.decode(view[8 : 8 + size], trusted=True))
                    view = view[8 + size :]
                assert [record["seq"] for record, _values in got] == [1, 2, 3, 4]
                assert [values for _record, values in got] == [[tile] for tile in tiles]
            finally:
                endpoint.close()

    def test_a_dead_peer_drops_the_outbox_and_the_read_side_says_so(self):
        ours, theirs = socket.socketpair()
        endpoint = Endpoint(ours, PIPE)
        try:
            theirs.close()
            endpoint.write([b"x" * 100])  # never raises
            assert not endpoint.outbox
            assert endpoint.read() is True
            (end,) = endpoint.inbox
            assert isinstance(end, EOFError) and endpoint.finished
        finally:
            endpoint.close()
        endpoint.write([b"late"])  # nor after close
        assert not endpoint.outbox and endpoint.closed


# --------------------------------------------------------------------------
# Who may wait, and how
# --------------------------------------------------------------------------


def test_the_wire_modules_wait_on_the_selector_only():
    """``net/ws_transport.py`` and ``net/endpoint.py`` own no thread and no
    executor, and nothing that faces a wire goes back to asyncio's stream
    pair: a worker's socket is read by ``Endpoint`` from the loop's selector."""
    offenders = []
    for name in ("ws_transport.py", "endpoint.py"):
        path = SRC / "repro" / "net" / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in ("threading", "concurrent"):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} imports {module}")
    for package in ("net", "worker"):
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                named = getattr(node, "attr", None) or getattr(node, "id", None)
                if named in ("start_server", "open_connection", "StreamReader"):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} names {named}")
    assert offenders == []
