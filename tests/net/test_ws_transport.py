"""Tests for the real websocket volunteer transport.

Unit layers first (wire codec, RFC 6455 framing, handshake, LoopClock), then
in-process integration: a live :class:`WsVolunteerGateway` on a real loopback
socket with volunteers running :func:`repro.worker.run_volunteer` in threads.
Process-level churn (SIGKILL / SIGSTOP) lives in
``tests/integration/test_ws_volunteer_churn.py``.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import pickle
import socket
import struct
import threading
import time
import tracemalloc

import pytest

from repro.core.distributed_map import DistributedMap
from repro.errors import PandoError, ProtocolError
from repro.net import wire
from repro.net.endpoint import (
    HTTP_HEAD,
    OP_BINARY,
    OP_CONT,
    WS,
    Endpoint,
    _apply_mask,
    encode_ws_frame,
)
from repro.net.ws_transport import (
    WIRE_VERSION,
    LoopClock,
    connect_websocket,
    pack_wire_frame,
    parse_ws_url,
    unpack_wire_frame,
    upgrade_response,
)
from repro.pullstream import collect, from_iterable, pull
from repro.worker import run_volunteer


# --------------------------------------------------------------------------
# Wire codec
# --------------------------------------------------------------------------


class TestWireCodec:
    def test_record_without_values_roundtrips(self):
        record = {"kind": "welcome", "worker_id": "w-1", "version": WIRE_VERSION}
        assert unpack_wire_frame(pack_wire_frame(record)) == record

    def test_values_roundtrip_inline_and_oob(self):
        values = [1, "two", {"three": 3}, b"x" * 4096, None, 2.5, True, (1, "t"),
                  {4, 5}, frozenset({6}), bytearray(b"y" * 600), bytearray(b"z"), [b"w"]]
        out = unpack_wire_frame(
            pack_wire_frame({"kind": "data", "seq": 7}, values, oob_min_bytes=512)
        )
        assert out["seq"] == 7
        assert out["values"] == values

    def test_oob_threshold_respected(self):
        # Far above the threshold the payload section carries the raw bytes
        # once; far below everything rides inside the pickle.  Both decode
        # identically — the threshold is a wire-size knob, not a semantic one.
        values = [b"y" * 1000]
        split = pack_wire_frame({"kind": "data"}, values, oob_min_bytes=64)
        inline = pack_wire_frame({"kind": "data"}, values, oob_min_bytes=1 << 20)
        assert unpack_wire_frame(split)["values"] == values
        assert unpack_wire_frame(inline)["values"] == values
        (control_len,) = struct.unpack_from("!I", split, 0)
        assert len(split) == 4 + control_len + 1000  # raw buffer after pickle
        assert len(inline) == 4 + struct.unpack_from("!I", inline, 0)[0]

    def test_small_memoryview_is_inlined_as_bytes(self):
        # A memoryview is unpicklable; below the threshold it must still
        # travel (materialised), matching oob_unpack's bytes shape.
        out = unpack_wire_frame(
            pack_wire_frame({"kind": "data"}, [memoryview(b"tiny")], oob_min_bytes=512)
        )
        assert out["values"] == [b"tiny"]

    def test_large_memoryview_goes_out_of_band(self):
        view = memoryview(b"z" * 2048)
        out = unpack_wire_frame(
            pack_wire_frame({"kind": "data"}, [view], oob_min_bytes=512)
        )
        assert out["values"] == [b"z" * 2048]


# --------------------------------------------------------------------------
# RFC 6455 framing
# --------------------------------------------------------------------------


def received(read_stream, data: bytes, masked: bool, max_frame: int = 1 << 26):
    """The messages the side that accepts *masked* frames files for *data*;
    a refusal raises."""
    *messages, end = read_stream(WS(client_side=not masked, max_frame=max_frame), data)[0]
    if isinstance(end, ProtocolError):
        raise end
    return messages


class TestFraming:
    def test_mask_is_an_involution(self):
        payload, key = b"hello websocket world", b"\x12\x34\x56\x78"
        buffer = bytearray(payload)
        _apply_mask(buffer, key)
        assert buffer == bytes(b ^ key[i % 4] for i, b in enumerate(payload))
        _apply_mask(buffer, key)
        assert buffer == payload
        empty = bytearray()
        _apply_mask(empty, key)
        assert empty == b""

    @pytest.mark.parametrize("size", [0, 5, 125, 126, 65535, 65536, 100_000])
    @pytest.mark.parametrize("mask", [False, True])
    def test_encode_decode_roundtrip(self, size, mask, read_stream):
        payload = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
        frame = encode_ws_frame(OP_BINARY, payload, mask=mask)
        assert frame[0] == 0x80 | OP_BINARY  # FIN set, one binary frame
        assert received(read_stream, frame, mask) == [payload]

    def test_oversized_frame_is_refused(self, read_stream):
        frame = encode_ws_frame(OP_BINARY, b"x" * 1000, mask=False)
        with pytest.raises(ProtocolError):
            received(read_stream, frame, masked=False, max_frame=100)

    def test_fragmented_message_reassembles(self, read_stream):
        # FIN=0 BINARY then FIN=1 CONT — hand-built headers.
        first = bytes([OP_BINARY, 3]) + b"abc"
        final = bytes([0x80 | OP_CONT, 3]) + b"def"
        # unmasked frames: this is the volunteer's end of the wire
        assert received(read_stream, first + final, masked=False) == [b"abcdef"]

    def test_parse_ws_url(self):
        assert parse_ws_url("ws://127.0.0.1:5000") == ("127.0.0.1", 5000, "/")
        assert parse_ws_url("ws://host/path") == ("host", 80, "/path")
        with pytest.raises(PandoError):
            parse_ws_url("http://host:80/")


# --------------------------------------------------------------------------
# Handshake + a live echo socket
# --------------------------------------------------------------------------


class TestHandshake:
    def test_client_server_handshake_and_echo(self):
        async def go():
            loop = asyncio.get_running_loop()
            served = []

            def on_filed(endpoint):
                while endpoint.inbox:
                    message = endpoint.inbox.popleft()
                    if isinstance(message, Exception):
                        endpoint.close()
                    elif endpoint.framing is HTTP_HEAD:
                        endpoint.write([upgrade_response(message)])
                        endpoint.framing = WS(client_side=False)
                    else:
                        endpoint.write(endpoint.framing.wrap(message))

            def on_accept():
                served.append(Endpoint(listener.accept()[0], HTTP_HEAD))
                served[-1].watch(loop, on_filed)

            with socket.create_server(("127.0.0.1", 0)) as listener:
                listener.setblocking(False)
                loop.add_reader(listener, on_accept)
                port = listener.getsockname()[1]
                endpoint, messages = await connect_websocket(f"ws://127.0.0.1:{port}")
                ws = endpoint.framing
                endpoint.write(ws.wrap(b"ping me back"))
                echoed = await asyncio.wait_for(messages.get(), 5)
                endpoint.write(ws.ping())
                endpoint.write(ws.close())
                closed = await asyncio.wait_for(messages.get(), 5)
                endpoint.close()
                loop.remove_reader(listener)
            return echoed, closed, ws, served

        echoed, closed, ws, served = asyncio.run(go())
        assert echoed == b"ping me back"
        assert isinstance(closed, EOFError) and ws.close_code == 1000
        assert ws.pongs_received == 1
        assert [endpoint.closed for endpoint in served] == [True]

    def test_non_websocket_request_is_rejected(self):
        request = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"
        with pytest.raises(ProtocolError):
            upgrade_response(request)
        # ... and a live gateway says so in HTTP, then hangs up
        with DistributedMap() as dmap:
            gateway = dmap.serve_volunteers()
            with socket.create_connection(("127.0.0.1", gateway.port), timeout=5) as sock:
                sock.sendall(request)
                sock.setblocking(False)
                response, deadline = b"", time.monotonic() + 10
                while not response.endswith(b"\r\n\r\n") and time.monotonic() < deadline:
                    dmap.scheduler.run_coroutine(asyncio.sleep(0.01))
                    try:
                        response += sock.recv(4096)
                    except BlockingIOError:
                        pass
            assert gateway.live()  # still listening
        assert response.startswith(b"HTTP/1.1 400")


class TestLoopClock:
    def test_now_and_call_later(self):
        async def go():
            loop = asyncio.get_running_loop()
            clock = LoopClock(loop)
            fired = []
            before = clock.now
            handle = clock.call_later(0.01, lambda: fired.append(clock.now))
            cancelled = clock.call_later(10.0, lambda: fired.append("never"))
            cancelled.cancel()
            await asyncio.sleep(0.05)
            assert handle is not None
            return before, fired

        before, fired = asyncio.run(go())
        assert len(fired) == 1
        assert fired[0] >= before + 0.01


# --------------------------------------------------------------------------
# Gateway integration (threaded volunteers on a real loopback socket)
# --------------------------------------------------------------------------


def start_volunteer_thread(url, **kwargs):
    """Run one volunteer session in a thread; returns (thread, result box)."""
    box = {}

    def target():
        box["report"] = run_volunteer(url, **kwargs)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def failing_fn(value):
    raise ValueError(f"cannot process {value!r}")


class TestGatewayIntegration:
    def test_end_to_end_ordered_results(self):
        dmap = DistributedMap(scheduler="asyncio", batch_size=2)
        sink = pull(from_iterable(range(30)), dmap, collect())
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        threads = [
            start_volunteer_thread(gateway.url, name=f"vol-{i}", tabs=2)
            for i in range(2)
        ]
        try:
            dmap.drive(sink, timeout=30)
            assert sink.result() == [-i for i in range(30)]
        finally:
            dmap.close()
            for thread, _box in threads:
                thread.join(10)
        reports = [box["report"] for _thread, box in threads]
        assert all(report.graceful for report in reports)
        assert all(report.error is None for report in reports)
        assert sum(report.values_processed for report in reports) == 30
        assert gateway.volunteers_joined == 2
        assert gateway.volunteers_left == 2
        assert gateway.volunteers_crashed == 0
        assert gateway.suspicions == 0
        assert gateway.registry.joins == 2 and gateway.registry.leaves == 2
        assert {record.device_name for record in gateway.registry.records} == {
            "vol-0",
            "vol-1",
        }

    def test_volunteer_supplies_its_own_function(self):
        # The master announces no function reference; the volunteer brings
        # one locally (the --module / --fn path of the CLI).
        dmap = DistributedMap(scheduler="asyncio")
        sink = pull(from_iterable([1, 2, 3]), dmap, collect())
        gateway = dmap.serve_volunteers()  # fn_ref=None
        thread, box = start_volunteer_thread(gateway.url, fn_ref="operator:neg")
        try:
            dmap.drive(sink, timeout=30)
            assert sink.result() == [-1, -2, -3]
        finally:
            dmap.close()
            thread.join(10)
        assert box["report"].graceful

    def test_no_function_anywhere_fails_the_session(self):
        # Neither side names a function: the volunteer refuses the welcome
        # and leaves; with no workers left the drive can only time out.
        dmap = DistributedMap(scheduler="asyncio")
        sink = pull(from_iterable([1]), dmap, collect())
        gateway = dmap.serve_volunteers()  # fn_ref=None
        thread, box = start_volunteer_thread(gateway.url)
        try:
            with pytest.raises(PandoError, match="timed out"):
                dmap.drive(sink, timeout=2)
            thread.join(10)
            assert not thread.is_alive()
        finally:
            dmap.close()
        report = box["report"]
        assert report.error is not None
        assert "function reference" in report.error

    def test_task_error_fails_substream_and_relends(self):
        # One volunteer whose function raises on every value: its sub-stream
        # fails with a TaskError and everything it borrowed is re-lent to
        # the healthy volunteer — the stream still completes exactly once.
        dmap = DistributedMap(scheduler="asyncio", batch_size=2)
        sink = pull(from_iterable(range(12)), dmap, collect())
        gateway = dmap.serve_volunteers()
        bad_thread, bad_box = start_volunteer_thread(
            gateway.url, fn_ref=failing_fn, name="bad"
        )
        good_thread, good_box = start_volunteer_thread(
            gateway.url, fn_ref="operator:neg", name="good"
        )
        try:
            dmap.drive(sink, timeout=30)
            assert sink.result() == [-i for i in range(12)]
        finally:
            dmap.close()
            bad_thread.join(10)
            good_thread.join(10)
        assert bad_box["report"].error is not None
        assert "task failed" in bad_box["report"].error
        assert good_box["report"].error is None
        assert gateway.volunteers_crashed == 1
        assert gateway.registry.crashes == 1

    def test_max_frames_graceful_leave_relends(self):
        # A volunteer that answers two frames and leaves (bye) mid-stream:
        # a graceful departure, not a crash, and no value is lost.
        dmap = DistributedMap(scheduler="asyncio", batch_size=1)
        sink = pull(from_iterable(range(16)), dmap, collect())
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        leaver_thread, leaver_box = start_volunteer_thread(
            gateway.url, name="leaver", max_frames=2
        )
        stayer_thread, _stayer_box = start_volunteer_thread(
            gateway.url, name="stayer"
        )
        try:
            dmap.drive(sink, timeout=30)
            assert sink.result() == [-i for i in range(16)]
        finally:
            dmap.close()
            leaver_thread.join(10)
            stayer_thread.join(10)
        assert leaver_box["report"].graceful
        assert leaver_box["report"].frames_processed == 2
        assert gateway.volunteers_crashed == 0
        assert gateway.volunteers_left == 2

    def test_heartbeats_flow_without_false_suspicion(self):
        # Aggressive ping interval over a slow workload: pings and pongs
        # must flow in both directions and nobody gets suspected.
        inputs = [{"sleep": 0.05, "n": i} for i in range(8)]
        dmap = DistributedMap(scheduler="asyncio")
        sink = pull(from_iterable(inputs), dmap, collect())
        gateway = dmap.serve_volunteers(
            fn_ref="repro.pool.workloads:sleep_echo",
            heartbeat_interval=0.05,
            heartbeat_timeout=2.0,
        )
        thread, box = start_volunteer_thread(gateway.url, name="steady")
        try:
            dmap.drive(sink, timeout=30)
            assert [v["n"] for v in sink.result()] == list(range(8))
        finally:
            dmap.close()
            thread.join(10)
        report = box["report"]
        assert report.graceful and not report.suspected_master
        assert report.pings_received >= 1  # master pinged the volunteer
        assert gateway.suspicions == 0

    def test_batched_frames_roundtrip(self):
        # frame_batch > 1 coalesces values into Batch frames on the wire and
        # the volunteer answers one Batch result frame per input frame.
        dmap = DistributedMap(scheduler="asyncio", batch_size=4)
        sink = pull(from_iterable(range(20)), dmap, collect())
        gateway = dmap.serve_volunteers(
            fn_ref="operator:neg", frame_batch=4, window=2
        )
        thread, box = start_volunteer_thread(gateway.url, name="batcher")
        try:
            dmap.drive(sink, timeout=30)
            assert sink.result() == [-i for i in range(20)]
        finally:
            dmap.close()
            thread.join(10)
        report = box["report"]
        assert report.values_processed == 20
        assert report.frames_processed == 5  # 20 values / frame_batch 4

    def test_connect_failure_is_reported_not_raised(self):
        report = run_volunteer("ws://127.0.0.1:9", connect_timeout=2.0)
        assert report.error is not None and "connect failed" in report.error
        assert report.worker_id is None


# --------------------------------------------------------------------------
# Hostile peers: a client that shakes hands properly, then lies
# --------------------------------------------------------------------------

#: appended to by the gadget below if anything ever unpickles it
GADGET_RAN = []


class Gadget:
    """Unpickling this with plain pickle runs code of the sender's choosing."""

    def __reduce__(self):
        return (exec, (f"import {__name__} as here; here.GADGET_RAN.append(1)",))


def result_record(record, **fields):
    return dict({"kind": "result", "seq": record["seq"], "ok": True}, **fields)


def negated(values):
    return [-value for value in values]


def forged_control(control, tail=b""):
    """A frame whose length prefix is honest about a hand-made control."""
    return struct.pack("!I", len(control)) + control + tail


LIES = {
    # the codec's own checks
    "oob entry past the payload": lambda record, values: b"".join(
        wire.encode(result_record(record), [b"x" * 2048])
    )[:-100],
    "control length past the payload": lambda record, values: struct.pack("!I", 10_000)
    + pickle.dumps(result_record(record)),
    "trailing garbage": lambda record, values: b"".join(
        wire.encode(result_record(record), negated(values))
    )
    + b"garbage",
    "control record is not a dict": lambda record, values: forged_control(
        pickle.dumps(["result", record["seq"]])
    ),
    "explicit memo index": lambda record, values: forged_control(
        b"\x80\x05}r\xff\xff\xff\x07."  # EMPTY_DICT, LONG_BINPUT 2**27-1: a 2 GiB memo
    ),
    # the frame each RESULT is checked against
    "another frame's seq": lambda record, values: wire.encode(
        dict(result_record(record), seq=record["seq"] + 1), negated(values)
    ),
    "two values for a frame of one": lambda record, values: wire.encode(
        result_record(record, batched=True), negated(values) * 2
    ),
    "no values": lambda record, values: wire.encode(result_record(record)),
    "ok is not a bool": lambda record, values: wire.encode(
        result_record(record, ok=1), negated(values)
    ),
    "a timing that is not a duration": lambda record, values: wire.encode(
        result_record(record, trace={"exec_s": float("nan")}), negated(values)
    ),
    # and the one that used to run
    "a __reduce__ gadget": lambda record, values: wire.encode(
        result_record(record, note=Gadget()), negated(values)
    ),
}


def hostile_session(url, forge, box, refused):
    """Join as ``liar``, answer the first DATA frame with ``forge(record,
    values)`` and record how the gateway ends the connection."""

    async def session():
        endpoint, messages = await connect_websocket(url)
        ws = endpoint.framing
        try:
            hello = {"kind": "hello", "version": WIRE_VERSION, "name": "liar", "tabs": 1}
            endpoint.write(ws.wrap(wire.encode(hello)))
            welcome, _ = wire.decode(await messages.get(), trusted=True)
            assert welcome["kind"] == "welcome"
            record, values = wire.decode(await messages.get(), trusted=True)
            endpoint.write(ws.wrap(forge(record, values)))
            while not isinstance(await messages.get(), Exception):
                pass
            return ws.close_code
        finally:
            endpoint.close()

    try:
        box["close"] = asyncio.run(asyncio.wait_for(session(), 20))
    except Exception as exc:  # reported through the box, asserted by the test
        box["close"] = exc
    finally:
        refused.set()


class TestHostilePeers:
    @pytest.mark.parametrize("lie", sorted(LIES))
    def test_a_lie_fails_one_substream_and_nothing_else(self, lie, caplog):
        """Each lie is a ProtocolError: close 1002, a ``frame_refused`` trace
        event, the liar's sub-stream failed, its borrowed values re-lent to
        an honest volunteer, the stream complete exactly once — and no
        exception left in a handler task."""
        del GADGET_RAN[:]
        dmap = DistributedMap(batch_size=1)
        sink = pull(from_iterable(range(1, 7)), dmap, collect())
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        box = {}
        refused = threading.Event()

        def honest():
            refused.wait(20)
            box["report"] = run_volunteer(gateway.url, name="honest")

        threads = [
            threading.Thread(
                target=hostile_session, args=(gateway.url, LIES[lie], box, refused), daemon=True
            ),
            threading.Thread(target=honest, daemon=True),
        ]
        for thread in threads:
            thread.start()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            try:
                dmap.drive(sink, timeout=30)
                assert sink.result() == [-i for i in range(1, 7)]
            finally:
                dmap.close()
                for thread in threads:
                    thread.join(10)
            gc.collect()  # an unretrieved task exception is logged on collection
        assert "exception" not in caplog.text
        assert box["close"] == 1002
        assert GADGET_RAN == []
        assert box["report"].graceful and box["report"].values_processed == 6
        assert gateway.volunteers_crashed == 1 and gateway.volunteers_left == 1
        assert dmap.stats.substreams_failed == 1
        (event,) = dmap.obs.trace.events("frame_refused")
        assert event.fields["worker"] == "liar"
        if lie == "a __reduce__ gadget":
            assert "builtins.exec" in event.fields["reason"]

    def test_an_anonymous_peer_cannot_make_the_master_allocate(self):
        """Before its hello is welcomed a connection may announce 64 KiB, not
        the 256 MiB a volunteer's frame may be: the refusal — close 1002, a
        ``frame_refused`` trace event — happens on the header, and nothing
        near the announced size is ever allocated."""
        dmap = DistributedMap()
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        box = {}

        async def session():
            endpoint, messages = await connect_websocket(gateway.url)
            try:
                # a masked binary frame announcing 200 MiB, and its first KiB
                header = bytes([0x80 | OP_BINARY, 0x80 | 127]) + struct.pack("!Q", 200 << 20)
                endpoint.write([header + b"\0\0\0\0" + b"x" * 1024])
                while not isinstance(await messages.get(), Exception):
                    pass
                return endpoint.framing.close_code
            finally:
                endpoint.close()

        def peer():
            try:
                box["close"] = asyncio.run(asyncio.wait_for(session(), 20))
            except Exception as exc:  # asserted below
                box["close"] = exc

        tracemalloc.start()
        try:
            thread = threading.Thread(target=peer, daemon=True)
            thread.start()
            deadline = time.monotonic() + 20
            while "close" not in box and time.monotonic() < deadline:
                dmap.scheduler.run_coroutine(asyncio.sleep(0.01))
                while gateway.dispatch():
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            dmap.close()
            thread.join(10)
        assert box["close"] == 1002
        assert peak < 1 << 20, peak
        (event,) = dmap.obs.trace.events("frame_refused")
        assert "exceeds" in event.fields["reason"]
        assert gateway.volunteers_joined == 0 and gateway.volunteers_crashed == 0


class TestVolunteerCli:
    def test_cli_runs_a_session_end_to_end(self, capsys):
        from repro.cli.pando_cli import main as pando_main

        dmap = DistributedMap(scheduler="asyncio")
        sink = pull(from_iterable([1, 2, 3]), dmap, collect())
        gateway = dmap.serve_volunteers(fn_ref="operator:neg")
        box = {}

        def target():
            box["code"] = pando_main(
                ["volunteer", gateway.url, "--name", "cli-vol", "--tabs", "2"]
            )

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        try:
            dmap.drive(sink, timeout=30)
            assert sink.result() == [-1, -2, -3]
        finally:
            dmap.close()
            thread.join(10)
        assert box["code"] == 0
        assert "cli-vol" in capsys.readouterr().err

    def test_cli_reports_connect_failure(self, capsys):
        from repro.worker.volunteer import main as volunteer_main

        code = volunteer_main(["ws://127.0.0.1:9", "--fn", "operator:neg"])
        assert code == 1
        assert "connect failed" in capsys.readouterr().err
