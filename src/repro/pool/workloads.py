"""Picklable workload functions for the process-pool backend.

Every function here is a plain module-level callable, so it can be referenced
by dotted name (``"repro.pool.workloads:render_frame"``) and executed in a
worker process.  They mirror the paper's CPU-bound applications (raytracer
frames, crypto nonce search) plus latency-bound stand-ins used by the
benchmarks to demonstrate overlap independently of the host's core count.
Two input builders live next to the functions that consume them:
:func:`large_payload_inputs` (for :func:`invert_tile`/:func:`sleep_blob`)
and :func:`crypto_search_inputs` (for :func:`search_nonces`).
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List, Tuple

__all__ = [
    "echo",
    "square",
    "times10",
    "sleep_echo",
    "sleep_blob",
    "log_completion",
    "spin",
    "invert_tile",
    "large_payload_inputs",
    "render_frame",
    "render_frame_pixels",
    "search_nonces",
    "crypto_search_inputs",
]


def echo(value: Any) -> Any:
    """Identity — the no-op baseline for dispatch-overhead measurements."""
    return value


def times10(value: Any) -> Any:
    """Multiply by ten — the test suite's SubStreamDriver convention, so a
    pool can serve the same map as driver-backed and channel-backed workers
    in the mixed-source scheduler tests."""
    return value * 10


def square(value: Any) -> Any:
    """Square a number (the quickstart function, pool-style)."""
    return value * value


def sleep_echo(value: Any) -> Any:
    """Sleep then echo: a latency-bound task (``{"sleep": seconds, ...}``).

    Parallel speedup on sleeping tasks does not require multiple cores, which
    makes this the portable workload for demonstrating that the pool overlaps
    work even on single-core CI hosts.
    """
    if isinstance(value, dict) and "sleep" in value:
        time.sleep(float(value["sleep"]))
    return value


def sleep_blob(value: bytes) -> bytes:
    """Sleep 50 ms, then echo a binary payload.

    The large-payload sibling of :func:`sleep_echo`: slow enough that a
    loaded Limiter window queues frames behind the running one (what the
    cancellation fan-out tests need), with ``bytes`` payloads eligible for
    the shared-memory transport.
    """
    time.sleep(0.05)
    return value


def log_completion(value: Any) -> Any:
    """Sleep, then append one completion record to ``$PANDO_COMPLETION_LOG``.

    Record format: ``"<pid> <id> <monotonic>"`` per line, written with a
    single ``O_APPEND`` write so concurrent worker processes never
    interleave.  ``CLOCK_MONOTONIC`` is system-wide on Linux, so the
    bounded-tail cancellation test can compare these child-side completion
    times against the master's ``abort_fanout`` trace timestamp directly.
    """
    import os

    if isinstance(value, dict) and "sleep" in value:
        time.sleep(float(value["sleep"]))
    path = os.environ.get("PANDO_COMPLETION_LOG")
    if path:
        ident = value.get("i") if isinstance(value, dict) else value
        record = f"{os.getpid()} {ident} {time.monotonic()}\n"
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, record.encode("utf-8"))
        finally:
            os.close(fd)
    return value


#: byte-wise complement, applied at C speed via bytes.translate
_INVERT_TABLE = bytes(255 - i for i in range(256))


def invert_tile(value: Any) -> bytes:
    """Invert an image tile's bytes (negative filter, the imageproc stand-in).

    A cheap, content-dependent transformation of a binary payload: the
    result is the same size as the input but never equal to it, so
    exactly-once checks catch duplicated *and* unprocessed tiles.
    """
    return bytes(value).translate(_INVERT_TABLE)


def large_payload_inputs(count: int, payload_bytes: int) -> List[bytes]:
    """Distinct ``bytes`` payloads of *payload_bytes* each.

    Each payload carries its index in the leading bytes, so exactly-once
    checks distinguish every value; the repeated filler keeps construction
    cheap.
    """
    return [
        index.to_bytes(8, "big") + bytes([index % 251]) * (payload_bytes - 8)
        for index in range(count)
    ]


def spin(value: Any) -> Any:
    """CPU-bound busy work: ``{"rounds": n}`` SHA-256 chains over the input."""
    rounds = int(value.get("rounds", 10_000)) if isinstance(value, dict) else int(value)
    digest = repr(value).encode("utf-8")
    for _ in range(rounds):
        digest = hashlib.sha256(digest).digest()
    return digest.hex()


def render_frame(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Render one raytraced animation frame (paper sections 2.1/4.1).

    ``spec`` follows :meth:`repro.apps.raytracer.RaytraceApplication
    .generate_inputs` (``{"angle": ..., "frame": ...}``) with optional
    ``width``/``height`` overrides.
    """
    from ..apps.raytracer import render_scene
    from ..net.serialization import encode_binary

    angle = float(spec["angle"])
    width = int(spec.get("width", 32))
    height = int(spec.get("height", 24))
    pixels = render_scene(angle, width, height)
    return {
        "angle": angle,
        "frame": spec.get("frame"),
        "pixels": encode_binary(pixels.tobytes()),
        "shape": list(pixels.shape),
    }


def render_frame_pixels(spec: Dict[str, Any]):
    """Render one frame and return the raw pixel array.

    The asymmetric-frame sibling of :func:`render_frame`: the input spec is
    a tiny dict (travels in-band) while the result is the full pixel
    buffer, which the shared-memory transport returns through the frame's
    spare slot instead of pickling it through the child's pipe.
    """
    from ..apps.raytracer import render_scene

    return render_scene(
        float(spec["angle"]),
        int(spec.get("width", 32)),
        int(spec.get("height", 24)),
    )


def search_nonces(attempt: Dict[str, Any]) -> Dict[str, Any]:
    """Test one range of nonces (the crypto application, pool-style)."""
    from ..apps.crypto import hash_attempt, meets_difficulty

    block = attempt["block"]
    start, count = int(attempt["start"]), int(attempt["count"])
    bits = int(attempt.get("difficulty_bits", 18))
    for nonce in range(start, start + count):
        if meets_difficulty(hash_attempt(block, nonce), bits):
            return {
                "found": True,
                "nonce": nonce,
                "height": attempt.get("height", 0),
                "hashes": nonce - start + 1,
            }
    return {
        "found": False,
        "nonce": None,
        "height": attempt.get("height", 0),
        "hashes": count,
    }


#: a difficulty no 64-bit nonce range will ever meet
IMPOSSIBLE_BITS = 192


def crypto_search_inputs(
    slow_count: int,
    shards: int = 2,
    values: int = 12,
    hit_index: int = 5,
    difficulty_bits: int = 12,
) -> Tuple[List[Dict[str, Any]], int]:
    """Build a skewed crypto-search input set and return ``(items, nonce)``.

    Attempts landing on shard 0 (indices ``0 mod shards``) are *slow*:
    *slow_count* nonces checked against an impossible difficulty, so the
    whole range is scanned and no hit is found.  The other shards' attempts
    are tiny no-hit probes, except ``hit_index`` which contains a
    precomputed valid nonce at the real *difficulty_bits*.  An ordered merge
    must therefore deliver every slow attempt before ``hit_index``; a
    completion-order merge delivers the hit as soon as its shard computes
    it.
    """
    from ..apps.crypto import find_valid_nonce

    if not 0 < hit_index < values:
        raise ValueError("hit_index must fall inside the input range")
    if hit_index % shards == 0:
        raise ValueError("hit_index must not land on the slow shard 0")
    block = "pando-unordered-bench"
    nonce = find_valid_nonce(block, difficulty_bits)
    items = []
    for index in range(values):
        if index == hit_index:
            items.append({
                "block": block,
                "start": 0,
                "count": nonce + 1,
                "difficulty_bits": difficulty_bits,
            })
        elif index % shards == 0:
            items.append({
                "block": block,
                "start": 10_000_000 + index * slow_count,
                "count": slow_count,
                "difficulty_bits": IMPOSSIBLE_BITS,
            })
        else:
            items.append({
                "block": block,
                "start": 20_000_000 + index * 256,
                "count": 256,
                "difficulty_bits": IMPOSSIBLE_BITS,
            })
    return items, nonce
