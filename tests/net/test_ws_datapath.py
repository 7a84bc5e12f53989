"""The websocket data path: lane masking, copy-free frames, hostile wires.

Properties first (the four-lane mask against a byte-wise reference, frames
assembled from mixed parts), then ``tracemalloc`` pins on how many copies of
a frame each direction holds at once — a copy count, not a timing — and the
regressions for the framing rules :meth:`WsConnection.recv` enforces and for
the late-volunteer refusal.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distributed_map import DistributedMap
from repro.errors import ProtocolError
from repro.net.ws_transport import (
    OP_BINARY,
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    WsConnection,
    _apply_mask,
    _read_ws_frame,
    encode_ws_frame,
    pack_wire_parts,
    unpack_wire_frame,
)
from repro.pullstream import collect, from_iterable, pull, take
from repro.worker import volunteer as volunteer_module
from repro.worker import run_volunteer

MIB = 1 << 20


def reference_mask(data: bytes, key: bytes) -> bytes:
    return bytes(byte ^ key[index % 4] for index, byte in enumerate(data))


class FakeWriter:
    """The slice of ``StreamWriter`` a :class:`WsConnection` uses."""

    def __init__(self, keep: bool = True) -> None:
        self.keep = keep
        self.written = []
        self.closed = False

    def write(self, data) -> None:
        if self.keep:
            self.written.append(bytes(data))

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    async def drain(self) -> None:
        pass


def connection(data: bytes, client_side: bool, **kwargs):
    """A connection whose peer already sent *data* and hung up."""
    reader = asyncio.StreamReader(limit=4 * MIB)
    reader.feed_data(data)
    reader.feed_eof()
    writer = FakeWriter()
    return WsConnection(reader, writer, client_side=client_side, **kwargs), writer


def raw_frame(opcode: int, payload: bytes, fin: bool = True, key: bytes = b"") -> bytes:
    """One hand-built frame; masked with *key* when given (no validity checks)."""
    head = bytes([(0x80 if fin else 0) | opcode])
    mask_bit = 0x80 if key else 0
    if len(payload) < 126:
        head += bytes([mask_bit | len(payload)])
    elif len(payload) < 1 << 16:
        head += bytes([mask_bit | 126]) + struct.pack("!H", len(payload))
    else:
        head += bytes([mask_bit | 127]) + struct.pack("!Q", len(payload))
    if key:
        payload = reference_mask(payload, key)
    return head + key + payload


# --------------------------------------------------------------------------
# The lane mask
# --------------------------------------------------------------------------

#: lengths 0-70, then around 64 KiB and around 64 KiB *per lane*
mask_lengths = st.one_of(
    st.integers(0, 70),
    st.integers(-5, 5).map(lambda delta: 65536 + delta),
    st.integers(-5, 5).map(lambda delta: 4 * 65536 + delta),
)


class TestLaneMask:
    @settings(max_examples=120, deadline=None)
    @given(
        length=mask_lengths,
        key=st.binary(min_size=4, max_size=4),
        start=st.integers(0, 17),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(length=70, key=b"\x00\x00\x00\x00", start=3, seed=1)
    @example(length=9, key=b"\x00\xff\x00\x01", start=0, seed=2)
    def test_equals_bytewise_xor_and_is_an_involution(self, length, key, start, seed):
        pattern = seed.to_bytes(4, "big") + bytes(range(256))
        data = (pattern * ((start + length) // len(pattern) + 1))[: start + length]
        buffer = bytearray(data)
        _apply_mask(buffer, key, start)
        assert buffer[:start] == data[:start]  # the header is left alone
        assert buffer[start:] == reference_mask(data[start:], key)
        _apply_mask(buffer, key, start)
        assert buffer == data


class TestVolunteerColdStart:
    def test_importing_the_volunteer_stays_light(self):
        # A spawned volunteer pays this import before it can say hello: no
        # numpy, no lint runner, no http.server, no mask table built yet.
        probe = (
            "import sys, repro.worker.volunteer\n"
            "from repro.net.ws_transport import _xor_table\n"
            "heavy = ['numpy', 'http.server', 'repro.analysis.runner',\n"
            "         'repro.analysis.checkers', 'repro.obs.http_endpoint']\n"
            "print([name for name in heavy if name in sys.modules],\n"
            "      _xor_table.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["[]", "0"]

    def test_lazy_package_names_still_resolve(self):
        import repro.analysis
        import repro.obs

        for package in (repro.analysis, repro.obs):
            for name in package.__all__:
                assert getattr(package, name) is not None
        with pytest.raises(AttributeError):
            repro.obs.no_such_name
        with pytest.raises(AttributeError):
            repro.analysis.no_such_name


# --------------------------------------------------------------------------
# Frames assembled from parts
# --------------------------------------------------------------------------

_part = st.tuples(st.binary(max_size=300), st.sampled_from(["bytes", "bytearray", "view"]))


def _decode(frame, masked):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(bytes(frame))
        reader.feed_eof()
        return await _read_ws_frame(reader, 1 << 26, masked=masked)

    return asyncio.run(go())


class TestFrameAssembly:
    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(_part, max_size=6), mask=st.booleans())
    def test_mixed_parts_decode_to_their_concatenation(self, parts, mask):
        shapes = {"bytes": bytes, "bytearray": bytearray, "view": memoryview}
        shaped = [shapes[kind](data) for data, kind in parts]
        frame = encode_ws_frame(OP_BINARY, shaped, mask=mask)
        fin, opcode, payload = _decode(frame, masked=mask)
        assert fin and opcode == OP_BINARY
        assert payload == b"".join(data for data, _kind in parts)
        # the caller's buffers are read, never written
        assert [bytes(part) for part in shaped] == [data for data, _kind in parts]

    @pytest.mark.parametrize("mask", [False, True])
    def test_one_buffer_and_a_list_of_it_encode_alike(self, mask):
        payload = bytes(range(256)) * 300  # 76800 bytes: the 64-bit length form
        single = _decode(encode_ws_frame(OP_BINARY, payload, mask=mask), masked=mask)
        listed = _decode(encode_ws_frame(OP_BINARY, [payload], mask=mask), masked=mask)
        assert single == listed == (True, OP_BINARY, payload)

    def test_masked_frames_use_a_fresh_key(self):
        frames = {bytes(encode_ws_frame(OP_BINARY, b"x" * 8, mask=True)[2:6]) for _ in range(8)}
        assert len(frames) > 1

    def test_wire_parts_roundtrip_through_a_frame(self):
        values = [b"a" * 5000, bytearray(b"b" * 700), 7, memoryview(b"c" * 2048)]
        parts = pack_wire_parts({"kind": "data", "seq": 3}, values, oob_min_bytes=512)
        assert parts[2:] == [values[0], values[1], values[3]]  # the values' own buffers
        _fin, _opcode, payload = _decode(encode_ws_frame(OP_BINARY, parts, mask=True), masked=True)
        record = unpack_wire_frame(payload)
        assert record["seq"] == 3
        assert record["values"] == [b"a" * 5000, bytearray(b"b" * 700), 7, b"c" * 2048]
        assert all(type(v) is not memoryview for v in record["values"])  # owned copies


# --------------------------------------------------------------------------
# Copies per direction (tracemalloc, not timing)
# --------------------------------------------------------------------------


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCopyCount:
    def test_sending_a_frame_holds_one_buffer_and_two_lane_temporaries(self):
        tile = os.urandom(MIB)
        conn = WsConnection(None, FakeWriter(keep=False), client_side=True)

        def send():
            conn.send_bytes(pack_wire_parts({"kind": "data", "seq": 1}, [tile]))

        peak = _traced_peak(send)
        # the frame (1x) + one lane and its translation (2 x 0.25x)
        assert MIB <= peak <= 1.75 * MIB, peak / MIB
        assert conn.frames_sent == 1 and conn.bytes_sent > MIB

    def test_receiving_a_frame_holds_at_most_the_frame_and_the_values(self):
        tile = os.urandom(MIB // 2)
        wire = b"".join(pack_wire_parts({"kind": "result", "seq": 1}, [tile, tile]))
        data = raw_frame(OP_BINARY, wire, key=b"\x11\x22\x33\x44")

        async def receive():
            tracemalloc.start()  # inside the loop: its own set-up is not the path's
            try:
                conn, _writer = connection(data, client_side=False)
                record = unpack_wire_frame(await conn.recv())
                return record, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        record, peak = asyncio.run(receive())
        assert record["values"] == [tile, tile]
        # the reader's buffer and the frame (2x), then the frame and its
        # lanes (1.5x), then the frame and the owned values (2x)
        assert peak <= 2.75 * len(data), peak / len(data)


# --------------------------------------------------------------------------
# Hostile wire: what recv() refuses
# --------------------------------------------------------------------------


def recv_all(data: bytes, client_side: bool, **kwargs):
    """Messages received until the connection finishes; also the writer."""

    async def go():
        conn, writer = connection(data, client_side, **kwargs)
        messages = []
        while True:
            message = await conn.recv()
            if message is None:
                return messages, writer, conn
            messages.append(bytes(message))

    return asyncio.run(go())


KEY = b"\xa1\xb2\xc3\xd4"


class TestMaskDirection:
    def test_gateway_side_refuses_an_unmasked_frame(self):
        with pytest.raises(ProtocolError, match="an unmasked websocket frame"):
            recv_all(raw_frame(OP_BINARY, b"hello"), client_side=False)

    def test_volunteer_side_refuses_a_masked_frame(self):
        with pytest.raises(ProtocolError, match="a masked websocket frame"):
            recv_all(raw_frame(OP_BINARY, b"hello", key=KEY), client_side=True)

    def test_each_side_accepts_the_other_sides_frames(self):
        # What a client connection writes, a server connection reads, and back.
        client = WsConnection(None, FakeWriter(), client_side=True)
        client.send_bytes([b"from the ", bytearray(b"volunteer")])
        sent = b"".join(client._writer.written)
        assert sent[1] & 0x80  # volunteers still mask
        assert recv_all(sent, client_side=False)[0] == [b"from the volunteer"]

        server = WsConnection(None, FakeWriter(), client_side=False)
        server.send_bytes(b"from the master")
        sent = b"".join(server._writer.written)
        assert not sent[1] & 0x80  # the master never does
        assert recv_all(sent, client_side=True)[0] == [b"from the master"]

    def test_a_refusal_answers_with_close_code_1002(self):
        async def go():
            conn, writer = connection(raw_frame(OP_BINARY, b"x"), client_side=False)
            with pytest.raises(ProtocolError):
                await conn.recv()
            return conn, writer

        conn, writer = asyncio.run(go())
        assert conn.closed
        assert writer.written == [bytes([0x80 | OP_CLOSE, 2]) + struct.pack("!H", 1002)]


class TestControlFrames:
    def test_control_frame_longer_than_125_bytes_is_refused(self):
        with pytest.raises(ProtocolError, match="control frame"):
            recv_all(raw_frame(OP_PING, b"p" * 126), client_side=True)

    def test_fragmented_control_frame_is_refused(self):
        with pytest.raises(ProtocolError, match="control frame"):
            recv_all(raw_frame(OP_PING, b"hb", fin=False), client_side=True)

    def test_the_refusal_precedes_the_payload(self):
        # Only the 2-byte header ever arrives: the refusal must not wait for
        # the 2^63 bytes the header announces.
        header = bytes([0x80 | OP_PING, 127])
        with pytest.raises(ProtocolError, match="control frame"):
            recv_all(header, client_side=True)

    def test_a_125_byte_ping_is_answered(self):
        data = raw_frame(OP_PING, b"p" * 125) + raw_frame(OP_BINARY, b"after")
        messages, writer, conn = recv_all(data, client_side=True)
        assert messages == [b"after"]
        assert conn.pings_received == 1
        _fin, opcode, payload = _decode(writer.written[0], masked=True)
        assert (opcode, payload) == (0xA, b"p" * 125)


class TestFragmentBound:
    def test_pieces_that_each_fit_cannot_outgrow_max_frame(self):
        # 4 x 40 bytes, each under the 100-byte limit, 160 in total.
        data = raw_frame(OP_BINARY, b"a" * 40, fin=False) + b"".join(
            raw_frame(OP_CONT, b"a" * 40, fin=False) for _ in range(3)
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_all(data, client_side=True, max_frame=100)

    def test_a_fragmented_message_of_exactly_max_frame_passes(self):
        data = (
            raw_frame(OP_BINARY, b"a" * 40, fin=False)
            + raw_frame(OP_PING, b"hb")  # control frames may interleave
            + raw_frame(OP_CONT, b"b" * 40, fin=False)
            + raw_frame(OP_CONT, b"c" * 20)
            + raw_frame(OP_BINARY, b"d" * 100)  # the budget is per message
        )
        messages, _writer, conn = recv_all(data, client_side=True, max_frame=100)
        assert messages == [b"a" * 40 + b"b" * 40 + b"c" * 20, b"d" * 100]
        assert conn.pings_received == 1

    def test_a_new_message_inside_a_fragmented_one_is_refused(self):
        data = raw_frame(OP_BINARY, b"abc", fin=False) + raw_frame(OP_BINARY, b"def")
        with pytest.raises(ProtocolError, match="inside a fragmented message"):
            recv_all(data, client_side=True)
        with pytest.raises(ProtocolError, match="without a start"):
            recv_all(raw_frame(OP_CONT, b"def"), client_side=True)

    def test_masked_fragments_reassemble(self):
        data = (
            raw_frame(OP_BINARY, b"abc", fin=False, key=KEY)
            + raw_frame(OP_CONT, b"", fin=False, key=KEY)
            + raw_frame(OP_CONT, b"defg", key=KEY)
        )
        assert recv_all(data, client_side=False)[0] == [b"abcdefg"]


# --------------------------------------------------------------------------
# A volunteer that knocks after the map has terminated
# --------------------------------------------------------------------------


def spin_until(dmap, gateway, predicate, timeout=15.0):
    """Spin the map's loop (outside any drive) until *predicate* holds."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        dmap.scheduler.run_coroutine(asyncio.sleep(0.02))
        while gateway.dispatch():
            pass
    return predicate()


class TestLateVolunteer:
    def test_refusal_is_graceful_and_exits_zero(self):
        dmap = DistributedMap(scheduler="asyncio")
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        sink = pull(from_iterable(itertools.count()), dmap, take(4), collect())
        box = {}
        first = threading.Thread(
            target=lambda: box.setdefault("first", run_volunteer(gateway.url)), daemon=True
        )
        first.start()
        try:
            dmap.drive(sink, timeout=30)
            assert sink.result() == [0, -1, -2, -3]
            assert dmap.closed  # terminated by the downstream abort

            late = threading.Thread(
                target=lambda: box.setdefault("late", run_volunteer(gateway.url)), daemon=True
            )
            late.start()
            assert spin_until(dmap, gateway, lambda: not late.is_alive())
            report = box["late"]
            assert report.graceful and report.error is None
            assert not report.suspected_master
            assert report.values_processed == 0

            # the command line reports the same thing as exit status 0
            status = {}
            cli = threading.Thread(
                target=lambda: status.setdefault(
                    "code", volunteer_module.main([gateway.url])
                ),
                daemon=True,
            )
            cli.start()
            assert spin_until(dmap, gateway, lambda: not cli.is_alive())
            assert status["code"] == 0
        finally:
            dmap.close()
            first.join(10)
        assert gateway.volunteers_joined == 1  # the refused ones never joined

    def test_hello_queued_at_stop_is_answered_and_exits_gracefully(self, caplog):
        """Regression: a volunteer whose hello sat in the gateway's inbox
        when ``stop()`` ran was answered by the final dispatch, but the loop
        never spun again — its handler task was destroyed pending and the
        volunteer left on its own heartbeat suspicion."""
        import gc
        import logging

        dmap = DistributedMap()
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        sink = pull(from_iterable(itertools.count()), dmap, take(2), collect())
        box = {}
        late = threading.Thread(
            target=lambda: box.setdefault("late", run_volunteer(gateway.url)), daemon=True
        )
        late.start()
        # Spin the loop without dispatching: the handler task shakes hands,
        # queues the hello and parks until the gateway answers it.
        deadline = time.monotonic() + 15
        while not gateway.ready() and time.monotonic() < deadline:
            dmap.scheduler.run_coroutine(asyncio.sleep(0.02))
        assert gateway.ready()
        # The map terminates before any dispatch round sees the hello.
        dmap.add_local_worker(lambda v, cb: cb(None, -v))
        assert sink.result() == [0, -1] and dmap.closed
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            dmap.close()
            late.join(10)
            del dmap, gateway, sink
            gc.collect()
        assert not late.is_alive()
        report = box["late"]
        assert report.graceful and report.error is None
        assert not report.suspected_master
        assert "Task was destroyed" not in caplog.text
