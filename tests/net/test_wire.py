"""The one frame codec: fuzzed from the network side, round-tripped from ours.

``wire.decode(..., trusted=False)`` and the ``WS`` framing are the two
places that read bytes a network peer chose.  Whatever those bytes are —
arbitrary, a valid frame cut short anywhere, a valid frame with a length
field rewritten — the outcome is a value, a ``ProtocolError`` or the end of
the stream: never another exception, never a hang (each example has a
deadline), never a read or an allocation sized by the peer instead of by
the frame.  Then the one identity property: whatever a frame of values is
placed in — the tail, a ring slot, the control record — it comes back equal.
"""

from __future__ import annotations

import ast
import pathlib
import socket
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net import wire
from repro.net.shm_ring import ShmRing, load_entry, pack_frame, store_entry, unpack_frame
from repro.net.endpoint import OP_BINARY, WS, encode_ws_frame

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

# --------------------------------------------------------------------------
# What may be in a frame
# --------------------------------------------------------------------------

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.binary(max_size=24)
    | st.binary(max_size=24).map(bytearray)
)
hashables = st.integers() | st.text(max_size=6) | st.binary(max_size=6)
#: the plain-data grammar a reader that resolves no global can build
plain = st.recursive(
    scalars | st.sets(hashables, max_size=3) | st.frozensets(hashables, max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(hashables, inner, max_size=3),
    max_leaves=8,
)
#: flat payloads on both sides of every threshold used below
sizes = st.integers(0, 40) | st.integers(-3, 3).map(lambda d: 64 + d) | st.integers(500, 1100)
blobs = st.builds(lambda size, fill: bytes([fill]) * size, sizes, st.integers(0, 255))
arrays = st.builds(
    lambda count, dtype, rows: np.arange(count * rows, dtype=dtype).reshape(rows, count),
    st.integers(1, 150),
    st.sampled_from(["u1", "<i2", "<f8"]),
    st.integers(1, 2),
)
values_strategy = st.lists(
    plain | blobs | blobs.map(bytearray) | blobs.map(memoryview) | arrays, max_size=5
)
thresholds = st.sampled_from([1, 64, 512])


def same(got, sent) -> bool:
    """*got* is what *sent* must arrive as: equal, and of the same type."""
    if isinstance(sent, memoryview):  # unpicklable: arrives as its bytes
        return type(got) is bytes and got == bytes(sent)
    if isinstance(sent, np.ndarray):
        return (
            isinstance(got, np.ndarray)
            and got.dtype == sent.dtype
            and got.shape == sent.shape
            and bool((got == sent).all())
        )
    return type(got) is type(sent) and got == sent


def all_same(got, sent) -> bool:
    return len(got) == len(sent) and all(map(same, got, sent))


# --------------------------------------------------------------------------
# Round trip: one property, every placement
# --------------------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(values=values_strategy, min_bytes=thresholds, record=st.dictionaries(
        st.sampled_from(["kind", "seq", "ok", "trace", "error"]), plain, max_size=4))
    def test_what_goes_in_comes_out_wherever_it_was_placed(self, values, min_bytes, record):
        # the tail, read both ways (a volunteer's frame and a master's)
        frame = b"".join(wire.encode(record, values, min_bytes))
        for trusted in (False, True):
            got_record, got = wire.decode(frame, trusted=trusted)
            assert got_record == record and all_same(got, values)
        # inline: a threshold nothing reaches keeps every bytes-like in the record
        inline = wire.encode(record, values, 1 << 30)
        assert len(inline) == 2 + sum(isinstance(v, np.ndarray) for v in values)
        assert all_same(wire.decode(b"".join(inline), trusted=False)[1], values)
        # the pipe: the same layout behind an 8-byte length
        ours, theirs = socket.socketpair()
        with ours, theirs:
            for part in wire.pipe_message(wire.encode(record, values, min_bytes)):
                ours.sendall(part)
            assert all_same(wire.decode(wire.read_pipe_message(theirs), trusted=True)[1], values)
        # ring slots (and their inline fallback when a slot is too small),
        # there and back through the child-side helpers
        for slot_size in (4096, 32):
            with ShmRing(slot_count=8, slot_size=slot_size) as ring:
                entries, slots = pack_frame(ring, values, min_bytes)
                assert all_same(unpack_frame(ring, entries), values)
                echoed = [
                    store_entry(
                        ring.name, slot_size, entry, load_entry(ring.name, slot_size, entry),
                        min_bytes,
                    )
                    for entry in entries
                ]
                assert all_same(unpack_frame(ring, echoed), values)
                ring.release_all(slots)
                assert ring.in_use == 0

    def test_a_record_without_values_has_none(self):
        record, values = wire.decode(b"".join(wire.encode({"kind": "bye"})), trusted=False)
        assert record == {"kind": "bye"} and values is None

    def test_an_array_with_a_zero_in_its_shape_travels_inline(self):
        # Regression: oob_pack raised on it (a view with a zero in its shape
        # cannot be cast), taking the whole frame down.
        empty = np.zeros((3, 0))
        (got,) = wire.decode(b"".join(wire.encode({}, [empty])), trusted=True)[1]
        assert got.shape == (3, 0)


# --------------------------------------------------------------------------
# wire.decode against a peer
# --------------------------------------------------------------------------

MIB = 1 << 20


def decode_outcome(payload):
    """``("ok", record, values)`` or ``("refused", message)``; the peak of
    traced allocation rides along.  Anything else propagates and fails."""
    tracemalloc.start()
    try:
        try:
            record, values = wire.decode(payload, trusted=False)
            outcome = ("ok", record, values)
        except ProtocolError as exc:
            outcome = ("refused", str(exc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # what a frame may cost: its values' owned copies, the unpickler's memo
    # and containers, the error message — a multiple of its own size, never
    # a number the peer wrote into it
    assert peak <= MIB + 64 * len(payload), (peak, len(payload))
    return outcome


def valid_frame(values, min_bytes=64):
    record = {"kind": "result", "seq": 3, "ok": True, "trace": {"exec_s": 0.25}}
    return b"".join(wire.encode(record, values, min_bytes))


class TestDecodeFuzz:
    @settings(max_examples=300, deadline=2000)
    @given(payload=st.binary(max_size=300))
    @example(payload=b"")
    @example(payload=b"\x00\x00\x00\x00")
    @example(payload=b"\x00\x00\x00\x01.")
    @example(payload=b"\xff\xff\xff\xff" + b"N." * 20)
    def test_arbitrary_bytes(self, payload):
        decode_outcome(payload)

    @settings(max_examples=300, deadline=2000)
    @given(body=st.binary(max_size=120), tail=st.binary(max_size=40))
    def test_arbitrary_control_records_behind_an_honest_length(self, body, tail):
        # Past the length check, straight into the opcode walk and the unpickler.
        decode_outcome(struct.pack("!I", len(body) + 2) + b"\x80\x05" + body + tail)

    @settings(max_examples=60, deadline=None)
    @given(values=values_strategy)
    def test_every_truncation_of_a_valid_frame_is_refused(self, values):
        frame = valid_frame(values)
        assert decode_outcome(frame)[0] == "ok"
        for cut in range(len(frame)):
            assert decode_outcome(frame[:cut])[0] == "refused", cut

    @settings(max_examples=300, deadline=2000)
    @given(
        values=values_strategy,
        edits=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)), min_size=1, max_size=4),
    )
    def test_mutated_frames(self, values, edits):
        # Any byte may change: the length prefix, an opcode, a declared
        # string or bytes length, an entry's length, the tail.
        frame = bytearray(valid_frame(values))
        for index, byte in edits:
            frame[index % len(frame)] = byte
        decode_outcome(bytes(frame))

    @pytest.mark.parametrize(
        "control",
        [
            b"\x80\x05}r\xff\xff\xff\x07.",  # LONG_BINPUT 2**27-1: a 2 GiB memo
            b"\x80\x05}q\xff.",  # BINPUT: the explicit index, small or not
            b"\x80\x05\x8e" + struct.pack("<Q", 1 << 31) + b"abc.",  # BINBYTES8, 2 GiB declared
            b"\x80\x05\x96" + struct.pack("<Q", 1 << 31) + b"abc.",  # BYTEARRAY8 likewise
            b"\x80\x05B" + struct.pack("<I", 1 << 31) + b"abc.",  # BINBYTES
            b"\x80\x05\x8d" + struct.pack("<Q", 1 << 62) + b"abc.",  # BINUNICODE8
            b"\x80\x05\x8b" + struct.pack("<i", -1) + b".",  # LONG4, negative length
            b"I1\n.",  # protocol 0: text opcodes are not walked, so not read
            b"cos\nsystem\n(S'true'\ntR.",  # the classic
            b"\x80\x05}.garbage",  # bytes behind STOP
        ],
    )
    def test_lengths_the_peer_declares_size_nothing(self, control):
        outcome = decode_outcome(struct.pack("!I", len(control)) + control)
        assert outcome[0] == "refused"

    def test_a_refused_global_is_named(self):
        import pickle

        frame = b"".join(wire.encode({"kind": "result", "when": pickle.loads}))
        with pytest.raises(ProtocolError, match=r"_pickle\.loads"):
            wire.decode(frame, trusted=False)
        # ... and the same frame is what a volunteer accepts from its master
        assert wire.decode(frame, trusted=True)[0]["when"] is pickle.loads

    def test_an_entry_may_not_alias_or_overrun_the_tail(self):
        import pickle

        def forged(entries, tail):
            control = pickle.dumps({"kind": "result", "values": entries})
            return struct.pack("!I", len(control)) + control + tail

        assert wire.decode(forged([("oob", "raw", None, 4)], b"abcd"), trusted=False)[1] == [b"abcd"]
        for entries in (
            [("oob", "raw", None, 5)],  # past the end
            [("oob", "raw", None, -1)],
            [("oob", "raw", None, 4.0)],
            [("oob", "raw", None, True)],
            [("oob", "raw", None, 3)],  # a byte left over
            [("oob", "raw", None, 4), ("oob", "raw", None, 4)],  # the same bytes twice
            [("oob", "nd", ("O", (1,)), 4)],  # object arrays are pointers
            [("oob", "nd", ("<f8", (3,)), 4)],
            [("oob", "zip", None, 4)],
            [("oob", "raw")],
            ["inline"],
            7,
        ):
            with pytest.raises(ProtocolError):
                wire.decode(forged(entries, b"abcd"), trusted=False)


# --------------------------------------------------------------------------
# The WS framing against a peer
# --------------------------------------------------------------------------

MAX_FRAME = 4096


def read_outcome(read_stream, data: bytes, masked: bool):
    """Messages read from *data* until it ends: a list of their lengths, then
    ``"eof"`` or ``"refused"``.  No buffer is ever sized by the peer instead
    of by the limit."""
    filed, _written, endpoint = read_stream(
        WS(client_side=not masked, max_frame=MAX_FRAME), data
    )
    assert endpoint.finished
    assert endpoint._payload is None or len(endpoint._payload) <= MAX_FRAME
    *messages, end = filed
    assert all(len(message) <= MAX_FRAME for message in messages)
    assert isinstance(end, (EOFError, ProtocolError)), end
    return [len(message) for message in messages] + [
        "refused" if isinstance(end, ProtocolError) else "eof"
    ]


class TestReadFrameFuzz:
    @settings(max_examples=300, deadline=2000)
    @given(data=st.binary(max_size=200), masked=st.booleans())
    @example(data=bytes([0x82, 127]) + b"\xff" * 8, masked=False)
    @example(data=bytes([0x82, 0xFF]) + b"\xff" * 12, masked=True)
    def test_arbitrary_bytes(self, data, masked, read_stream):
        assert read_outcome(read_stream, data, masked)[-1] in ("eof", "refused")

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from([0, 5, 125, 126, 300, MAX_FRAME]), masked=st.booleans())
    def test_every_truncation_of_a_valid_frame_ends_the_stream(self, size, masked, read_stream):
        frame = bytes(encode_ws_frame(OP_BINARY, b"p" * size, mask=masked))
        assert read_outcome(read_stream, frame, masked) == [size, "eof"]
        for cut in range(len(frame)):
            assert read_outcome(read_stream, frame[:cut], masked) == ["eof"], cut

    @settings(max_examples=200, deadline=2000)
    @given(
        size=st.sampled_from([5, 126, 300]),
        header=st.binary(min_size=2, max_size=10),
        masked=st.booleans(),
    )
    def test_a_rewritten_header(self, size, header, masked, read_stream):
        frame = bytearray(encode_ws_frame(OP_BINARY, b"p" * size, mask=masked))
        frame[: len(header)] = header
        assert read_outcome(read_stream, bytes(frame), masked)[-1] in ("eof", "refused")

    @settings(max_examples=100, deadline=2000)
    @given(
        data=st.binary(max_size=200),
        client_side=st.booleans(),
        cuts=st.lists(st.integers(0, 200), max_size=4),
    )
    def test_recv_ends_in_a_message_none_or_a_protocol_error(
        self, data, client_side, cuts, read_stream
    ):
        # However the bytes arrive: messages, then the one way the stream
        # ended, and a refusal is answered with a close frame.
        filed, written, endpoint = read_stream(
            WS(client_side, max_frame=MAX_FRAME), data, [cut % (len(data) + 1) for cut in cuts]
        )
        assert endpoint.finished
        assert not any(isinstance(item, Exception) for item in filed[:-1])
        assert isinstance(filed[-1], (EOFError, ProtocolError))
        if isinstance(filed[-1], ProtocolError):
            # the last thing written is a close frame (8 bytes masked, 4 not)
            assert written[-8 if client_side else -4] == 0x88
# --------------------------------------------------------------------------
# Who may know the layout
# --------------------------------------------------------------------------


def imported_modules(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield (node.module or "").split(".")[0]


def test_only_the_codec_pickles_and_only_it_knows_the_layout():
    """``net/wire.py`` is the one module that turns a frame into bytes:
    nothing else that faces a wire may unpickle, and the child's side of the
    pool has no length prefix of its own to pack."""
    offenders = []
    for package in ("net", "worker"):
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            if path.name != "wire.py" and "pickle" in imported_modules(path):
                offenders.append(f"{path.relative_to(SRC)} imports pickle")
    if "struct" in imported_modules(SRC / "repro" / "pool" / "tasks.py"):
        offenders.append("repro/pool/tasks.py imports struct")
    assert offenders == []
