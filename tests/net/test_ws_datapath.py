"""The websocket data path: the mask kernel, copy-free frames, hostile wires.

Properties first (both paths of the one mask kernel, the stdlib lanes and the
numpy word XOR, against a byte-wise reference; frames assembled from mixed
parts), then when a volunteer loads numpy, ``tracemalloc`` pins on how many
copies of a frame each direction holds at once — a copy count, not a timing —
and the regressions for the framing rules :class:`~repro.net.endpoint.WS`
enforces and for the late-volunteer refusal.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distributed_map import DistributedMap
from repro.errors import ProtocolError
from repro.net import endpoint as endpoint_module
from repro.net import wire
from repro.net.endpoint import (
    OP_BINARY,
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_PONG,
    WS,
    Endpoint,
    _mask,
    encode_ws_frame,
)
from repro.net.ws_transport import unpack_wire_frame
from repro.pullstream import collect, from_iterable, pull, take
from repro.worker import ws_volunteer as volunteer_module
from repro.worker.ws_volunteer import run_volunteer, spawn_volunteer_process

MIB = 1 << 20
KEY = b"\xa1\xb2\xc3\xd4"
ZERO_KEY = b"\x00\x00\x00\x00"


def reference_mask(data: bytes, key: bytes) -> bytes:
    return bytes(byte ^ key[index % 4] for index, byte in enumerate(data))


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
# The mask kernel
# --------------------------------------------------------------------------

#: what the kernel's numpy slot holds on each path
PATHS = {"lanes": None, "words": numpy}


@contextlib.contextmanager
def pinned(path):
    """Run the mask kernel on *path*, whatever this process has loaded."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(endpoint_module, "_numpy", PATHS[path])
        yield


#: lengths 0-70, then around 64 KiB and around 64 KiB *per lane*
mask_lengths = st.one_of(
    st.integers(0, 70),
    st.integers(-5, 5).map(lambda delta: 65536 + delta),
    st.integers(-5, 5).map(lambda delta: 4 * 65536 + delta),
)


def patterned(seed: int, length: int) -> bytes:
    pattern = seed.to_bytes(4, "big") + bytes(range(256))
    return (pattern * (length // len(pattern) + 1))[:length]


class TestMaskKernel:
    """Both paths of the one kernel: the lanes a volunteer masks with until
    numpy is loaded, and the word XOR after that (the master's only path)."""

    @settings(max_examples=120, deadline=None)
    @given(
        length=mask_lengths,
        key=st.binary(min_size=4, max_size=4),
        start=st.integers(0, 17),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(length=70, key=ZERO_KEY, start=3, seed=1)
    @example(length=9, key=b"\x00\xff\x00\x01", start=0, seed=2)
    @example(length=0, key=KEY, start=5, seed=3)
    @example(length=70, key=ZERO_KEY, start=0, seed=1)
    @example(length=0, key=KEY, start=0, seed=2)
    @example(length=3, key=KEY, start=0, seed=3)
    def test_each_path_equals_bytewise_xor_and_is_an_involution(self, length, key, start, seed):
        data = patterned(seed, start + length)
        # the header is left alone
        expected = data[:start] + reference_mask(data[start:], key)
        for path in PATHS:
            buffer = bytearray(data)
            with pinned(path):
                _mask(buffer, key, start)
                assert buffer == expected, path
                _mask(buffer, key, start)
            assert buffer == data, path

    @pytest.mark.parametrize("key", [KEY, ZERO_KEY], ids=["key", "zero-key"])
    @pytest.mark.parametrize("tail", range(4))
    def test_each_path_on_a_tile_frame_with_each_tail(self, tail, key):
        # a 512 KiB tile's payload, plus the 0-3 bytes the words leave over;
        # 14 bytes is the header of a masked 64-bit-length frame
        data = patterned(tail, 512 * 1024 + tail)
        expected = reference_mask(data, key)
        header = b"\x82\xff" + bytes(12)
        for path in PATHS:
            sent = bytearray(header + data)
            received = bytearray(data)
            with pinned(path):
                _mask(sent, key, len(header))
                _mask(received, key)
                assert sent == header + expected and received == expected, path
                _mask(sent, key, len(header))
                _mask(received, key)
            assert sent == header + data and received == data, path


class TestVolunteerColdStart:
    def test_importing_the_volunteer_stays_light(self):
        # A spawned volunteer pays this import before it can say hello: no
        # numpy, no lint runner, no http.server, no mask table built yet.
        # Masking a 1 MiB result and reading a frame from the master keep it
        # numpy-free: only the master's kernel uses numpy.
        probe = (
            "import select, socket, sys, repro.worker.ws_volunteer\n"
            "from repro.net.endpoint import OP_BINARY, WS, Endpoint, _xor_table, encode_ws_frame\n"
            "tables = _xor_table.cache_info().currsize\n"
            "frame = encode_ws_frame(OP_BINARY, bytes(range(256)) * 4096, mask=True)\n"
            "assert len(frame) == 14 + (1 << 20) and frame[1] & 0x80\n"
            "ours, theirs = socket.socketpair()\n"
            "endpoint = Endpoint(ours, WS(client_side=True))\n"
            "theirs.sendall(b''.join(WS(client_side=False).wrap(b'from the master')))\n"
            "while not endpoint.inbox and select.select([ours], [], [], 10)[0]:\n"
            "    endpoint.read()\n"
            "assert list(endpoint.inbox) == [b'from the master'], endpoint.inbox\n"
            "heavy = ['numpy', 'http.server', 'repro.analysis.runner',\n"
            "         'repro.analysis.checkers', 'repro.obs.http_endpoint']\n"
            "print([name for name in heavy if name in sys.modules], tables)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["[]", "0"]

    def test_a_refused_session_never_imports_numpy(self):
        # A volunteer that knocks after the stream ended is refused with END
        # at the welcome: it answered nothing, so it starts no mask loader.
        dmap = DistributedMap()
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        sink = pull(from_iterable(range(2)), dmap, collect())
        dmap.add_local_worker(lambda value, cb: cb(None, -value))
        assert sink.result() == [0, -1]
        probe = (
            "import sys, threading\n"
            "from repro.worker.ws_volunteer import run_volunteer\n"
            "report = run_volunteer(sys.argv[1])\n"
            "assert report.graceful and report.error is None, report\n"
            "assert report.frames_processed == 0, report\n"
            "assert [t.name for t in threading.enumerate()] == ['MainThread']\n"
            "assert 'numpy' not in sys.modules\n"
        )
        try:
            ((status, stderr),) = run_probes(dmap, gateway, [(probe, "")])
        finally:
            dmap.close()
        assert status == 0, stderr

    def test_numpy_is_imported_only_after_enough_answers_and_waited_for(self):
        # Three volunteers that each leave after one frame, so each answers
        # exactly one of the three values: one spawned as perf and the churn
        # tests spawn them, and two in fresh interpreters that look at
        # themselves once the session is over.  One small answer is far
        # below what earns the import back: no numpy.  With the budget at one
        # byte the same answer starts the loader, and the session does not
        # return before the import is done.
        dmap = DistributedMap()
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        sink = pull(from_iterable(range(3)), dmap, collect())
        spawned = spawn_volunteer_process(gateway.url, max_frames=1)
        session = (
            "import sys, threading\n"
            "from repro.net import endpoint\n"
            "from repro.worker import ws_volunteer\n"
            "if sys.argv[2]:\n"
            "    ws_volunteer._LANE_BYTES_BEFORE_IMPORT = int(sys.argv[2])\n"
            "report = ws_volunteer.run_volunteer(sys.argv[1], max_frames=1)\n"
            "assert report.graceful and report.error is None, report\n"
            "assert report.frames_processed == 1, report\n"
            "assert [t.name for t in threading.enumerate()] == ['MainThread']\n"
        )
        short = session + "assert 'numpy' not in sys.modules\n"
        paid = session + "assert endpoint._numpy is not None\n"
        try:
            statuses = run_probes(
                dmap,
                gateway,
                [(short, ""), (paid, "1")],
                sink=sink,
            )
            assert sorted(sink.result()) == [-2, -1, 0]
        finally:
            dmap.close()
            spawned.join(20)
        for status, stderr in statuses:
            assert status == 0, stderr
        assert spawned.exitcode == 0

    def test_the_volunteer_imports_none_of_the_master(self):
        # A fresh interpreter, as a spawned volunteer is: the client module
        # loads the endpoint, the codec, the heartbeat, the task runner and
        # a bare loop — no asyncio, no executor, nothing of the master, the
        # simulation, the devices or the observability plane.
        probe = (
            "import sys, repro.worker.ws_volunteer\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        loaded = set(out.stdout.split())
        assert "repro.sched.loop" in loaded and "repro.pool.tasks" in loaded
        forbidden = [
            "asyncio",
            "concurrent.futures",
            "repro.core",
            "repro.sim",
            "repro.obs",
            "repro.devices",
            "repro.master",
            "repro.pullstream",
            "repro.pool.process_pool",
            "repro.sched.event_loop",
            "repro.net.ws_transport",
        ]
        assert [
            name
            for name in sorted(loaded)
            if any(name == bad or name.startswith(bad + ".") for bad in forbidden)
        ] == []

    def test_lazy_package_names_still_resolve(self):
        import repro
        import repro.analysis
        import repro.net
        import repro.obs
        import repro.pool
        import repro.sched
        import repro.worker

        packages = (
            repro,
            repro.analysis,
            repro.net,
            repro.obs,
            repro.pool,
            repro.sched,
            repro.worker,
        )
        for package in packages:
            for name in package.__all__:
                assert getattr(package, name) is not None, (package.__name__, name)
            with pytest.raises(AttributeError):
                package.no_such_name
        assert repro.pullstream.__name__ == "repro.pullstream"
        assert repro.pool.workloads.__name__ == "repro.pool.workloads"
        assert repro.worker.spawn_volunteer_process.__module__ == "repro.worker.ws_volunteer"


# --------------------------------------------------------------------------
# Frames assembled from parts
# --------------------------------------------------------------------------

_part = st.tuples(st.binary(max_size=300), st.sampled_from(["bytes", "bytearray", "view"]))


def recv_all(read_stream, data, client_side: bool, **kwargs):
    """``(messages, written, ws)`` for a connection whose peer sent *data* and
    hung up; what the framing refuses raises."""
    ws = WS(client_side, **kwargs)
    (*messages, end), written, _endpoint = read_stream(ws, bytes(data))
    if isinstance(end, ProtocolError):
        raise end
    return messages, written, ws


def _decode(read_stream, frame, masked):
    """The one message *frame* amounts to, read by the side that accepts it."""
    assert frame[0] == 0x80 | OP_BINARY  # FIN set, binary
    (message,) = recv_all(read_stream, frame, client_side=not masked)[0]
    return message


class TestFrameAssembly:
    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(_part, max_size=6), mask=st.booleans())
    def test_mixed_parts_decode_to_their_concatenation(self, parts, mask, read_stream):
        shapes = {"bytes": bytes, "bytearray": bytearray, "view": memoryview}
        shaped = [shapes[kind](data) for data, kind in parts]
        frame = encode_ws_frame(OP_BINARY, shaped, mask=mask)
        assert _decode(read_stream, frame, masked=mask) == b"".join(
            data for data, _kind in parts
        )
        # the caller's buffers are read, never written
        assert [bytes(part) for part in shaped] == [data for data, _kind in parts]

    @pytest.mark.parametrize("mask", [False, True])
    def test_one_buffer_and_a_list_of_it_encode_alike(self, mask, read_stream):
        payload = bytes(range(256)) * 300  # 76800 bytes: the 64-bit length form
        single = _decode(read_stream, encode_ws_frame(OP_BINARY, payload, mask=mask), masked=mask)
        listed = _decode(read_stream, encode_ws_frame(OP_BINARY, [payload], mask=mask), masked=mask)
        assert single == listed == payload

    def test_masked_frames_use_a_fresh_key(self):
        frames = {bytes(encode_ws_frame(OP_BINARY, b"x" * 8, mask=True)[2:6]) for _ in range(8)}
        assert len(frames) > 1

    def test_wire_parts_roundtrip_through_a_frame(self, read_stream):
        values = [b"a" * 5000, bytearray(b"b" * 700), 7, memoryview(b"c" * 2048)]
        parts = wire.encode({"kind": "data", "seq": 3}, values, oob_min_bytes=512)
        assert parts[2:] == [values[0], values[1], values[3]]  # the values' own buffers
        payload = _decode(read_stream, encode_ws_frame(OP_BINARY, parts, mask=True), masked=True)
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
    # the frame (1x), plus on the lanes one lane and its translation
    # (2 x 0.25x); the words need no temporary
    @pytest.mark.parametrize("path, bound", [("lanes", 1.75), ("words", 1.1)])
    def test_sending_a_frame_holds_one_buffer_and_the_paths_temporaries(self, path, bound):
        tile = os.urandom(MIB)
        ours, theirs = socket.socketpair()  # a peer that does not read
        with theirs, pinned(path):
            endpoint = Endpoint(ours, WS(client_side=True))

            def send():
                endpoint.write(endpoint.framing.wrap(wire.encode({"kind": "data", "seq": 1}, [tile])))

            peak = _traced_peak(send)
            # what the socket did not take waits in the outbox as a view of it
            assert MIB <= peak <= bound * MIB, peak / MIB
            assert 0 < wire.payload_size(endpoint.outbox) < MIB + 64
            endpoint.close()

    def test_receiving_a_frame_holds_at_most_the_frame_and_the_values(self, read_stream):
        tile = os.urandom(MIB // 2)
        payload = b"".join(wire.encode({"kind": "result", "seq": 1}, [tile, tile]))
        data = raw_frame(OP_BINARY, payload, key=b"\x11\x22\x33\x44")

        def receive():
            (message, _end), _written, _endpoint = read_stream(WS(client_side=False), data)
            return unpack_wire_frame(message)

        with pinned("words"):
            tracemalloc.start()
            try:
                record = receive()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert record["values"] == [tile, tile]
        # the frame, received into the buffer it is unmasked in, then the
        # frame and the owned values (2x)
        assert peak <= 2.75 * len(data), peak / len(data)

    def test_unmasking_a_frame_xors_it_in_place(self):
        payload = bytearray(os.urandom(MIB))
        with pinned("words"):
            peak = _traced_peak(lambda: _mask(payload, KEY))
        # no frame-sized temporary, not even a lane of one
        assert peak < 64 * 1024, peak


# --------------------------------------------------------------------------
# Hostile wire: what recv() refuses
# --------------------------------------------------------------------------


class TestMaskDirection:
    def test_gateway_side_refuses_an_unmasked_frame(self, read_stream):
        with pytest.raises(ProtocolError, match="an unmasked websocket frame"):
            recv_all(read_stream, raw_frame(OP_BINARY, b"hello"), client_side=False)

    def test_volunteer_side_refuses_a_masked_frame(self, read_stream):
        with pytest.raises(ProtocolError, match="a masked websocket frame"):
            recv_all(read_stream, raw_frame(OP_BINARY, b"hello", key=KEY), client_side=True)

    def test_each_side_accepts_the_other_sides_frames(self, read_stream):
        # What a client connection writes, a server connection reads, and back.
        sent = b"".join(WS(client_side=True).wrap([b"from the ", bytearray(b"volunteer")]))
        assert sent[1] & 0x80  # volunteers still mask
        assert recv_all(read_stream, sent, client_side=False)[0] == [b"from the volunteer"]

        sent = b"".join(WS(client_side=False).wrap(b"from the master"))
        assert not sent[1] & 0x80  # the master never does
        assert recv_all(read_stream, sent, client_side=True)[0] == [b"from the master"]

    def test_a_refusal_answers_with_close_code_1002(self, read_stream):
        filed, written, endpoint = read_stream(
            WS(client_side=False), raw_frame(OP_BINARY, b"x"), eof=False
        )
        assert len(filed) == 1 and isinstance(filed[0], ProtocolError)
        assert endpoint.finished
        assert written == bytes([0x80 | OP_CLOSE, 2]) + struct.pack("!H", 1002)


class TestControlFrames:
    def test_control_frame_longer_than_125_bytes_is_refused(self, read_stream):
        with pytest.raises(ProtocolError, match="control frame"):
            recv_all(read_stream, raw_frame(OP_PING, b"p" * 126), client_side=True)

    def test_fragmented_control_frame_is_refused(self, read_stream):
        with pytest.raises(ProtocolError, match="control frame"):
            recv_all(read_stream, raw_frame(OP_PING, b"hb", fin=False), client_side=True)

    def test_the_refusal_precedes_the_payload(self, read_stream):
        # Only the 2-byte header ever arrives: the refusal must not wait for
        # the 2^63 bytes the header announces — and allocates none of them.
        header = bytes([0x80 | OP_PING, 127])
        filed, _written, _endpoint = read_stream(WS(client_side=True), header, eof=False)
        with pytest.raises(ProtocolError, match="control frame"):
            raise filed[0]

    def test_a_125_byte_ping_is_answered(self, read_stream):
        data = raw_frame(OP_PING, b"p" * 125) + raw_frame(OP_BINARY, b"after")
        messages, written, ws = recv_all(read_stream, data, client_side=True)
        assert messages == [b"after"]
        assert ws.pings_received == 1
        # the answer is one masked pong with the ping's payload
        assert written[0] == 0x80 | OP_PONG and written[1] == 0x80 | 125
        pong = bytearray(written[6:])
        _mask(pong, written[2:6])
        assert pong == b"p" * 125


class TestFragmentBound:
    def test_pieces_that_each_fit_cannot_outgrow_max_frame(self, read_stream):
        # 4 x 40 bytes, each under the 100-byte limit, 160 in total.
        data = raw_frame(OP_BINARY, b"a" * 40, fin=False) + b"".join(
            raw_frame(OP_CONT, b"a" * 40, fin=False) for _ in range(3)
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_all(read_stream, data, client_side=True, max_frame=100)

    def test_a_fragmented_message_of_exactly_max_frame_passes(self, read_stream):
        data = (
            raw_frame(OP_BINARY, b"a" * 40, fin=False)
            + raw_frame(OP_PING, b"hb")  # control frames may interleave
            + raw_frame(OP_CONT, b"b" * 40, fin=False)
            + raw_frame(OP_CONT, b"c" * 20)
            + raw_frame(OP_BINARY, b"d" * 100)  # the budget is per message
        )
        messages, _written, ws = recv_all(read_stream, data, client_side=True, max_frame=100)
        assert messages == [b"a" * 40 + b"b" * 40 + b"c" * 20, b"d" * 100]
        assert ws.pings_received == 1

    def test_a_new_message_inside_a_fragmented_one_is_refused(self, read_stream):
        data = raw_frame(OP_BINARY, b"abc", fin=False) + raw_frame(OP_BINARY, b"def")
        with pytest.raises(ProtocolError, match="inside a fragmented message"):
            recv_all(read_stream, data, client_side=True)
        with pytest.raises(ProtocolError, match="without a start"):
            recv_all(read_stream, raw_frame(OP_CONT, b"def"), client_side=True)

    def test_masked_fragments_reassemble(self, read_stream):
        data = (
            raw_frame(OP_BINARY, b"abc", fin=False, key=KEY)
            + raw_frame(OP_CONT, b"", fin=False, key=KEY)
            + raw_frame(OP_CONT, b"defg", key=KEY)
        )
        assert recv_all(read_stream, data, client_side=False)[0] == [b"abcdefg"]


# --------------------------------------------------------------------------
# A volunteer that knocks after the map has terminated
# --------------------------------------------------------------------------


def spin_until(dmap, gateway, predicate, timeout=15.0):
    """Spin the map's loop (outside any drive) until *predicate* holds."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        dmap.scheduler.spin(0.02)
        while gateway.dispatch():
            pass
    return predicate()


def run_probes(dmap, gateway, probes, sink=None):
    """Run each ``(source, argument)`` of *probes* in a fresh interpreter as
    ``python -c source URL argument``, serving them — by driving *sink*, or
    by spinning the loop — until they exit; returns their ``(exit status,
    stderr)``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", source, gateway.url, argument],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for source, argument in probes
    ]
    try:
        if sink is not None:
            dmap.drive(sink, timeout=30)
        assert spin_until(
            dmap,
            gateway,
            lambda: all(process.poll() is not None for process in processes),
            timeout=30,
        )
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
    return [(process.returncode, process.communicate()[1]) for process in processes]


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
        """Regression: a volunteer whose hello was filed but not dispatched
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
        # Spin the loop without dispatching: the connection is accepted and
        # upgraded, and its hello is filed until the gateway takes it.
        deadline = time.monotonic() + 15
        while not gateway.ready() and time.monotonic() < deadline:
            dmap.scheduler.spin(0.02)
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

    def test_a_volunteer_still_connecting_at_close_exits_zero(self):
        """Regression: a volunteer whose connection sat in the listening
        socket's backlog when ``close()`` ran — nobody had spun the loop since
        it dialled — found the socket reset (``connect failed``, exit 1)
        instead of being served like any other late volunteer."""
        dmap = DistributedMap()
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        sink = pull(from_iterable(range(4)), dmap, collect())
        box = {}
        first = threading.Thread(
            target=lambda: box.setdefault("first", run_volunteer(gateway.url)), daemon=True
        )
        first.start()
        try:
            dmap.drive(sink, timeout=30)
            assert sink.result() == [0, -1, -2, -3]
            late = threading.Thread(
                target=lambda: box.setdefault("late", volunteer_module.main([gateway.url])),
                daemon=True,
            )
            late.start()
            time.sleep(0.5)  # it has dialled and waits for its upgrade; the loop stands still
        finally:
            dmap.close()
            first.join(10)
        late.join(10)
        assert not late.is_alive()
        assert box["late"] == 0
        assert box["first"].graceful
        assert gateway.volunteers_crashed == 0 and gateway.suspicions == 0
