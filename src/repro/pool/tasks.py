"""Child-process side of the process-pool backend.

:func:`serve_frames` is a pool child's main loop: it reads frames from the
pipe the master holds the other end of, runs each through one of the two
frame runners — :func:`run_batch`, or :func:`run_shm_batch` when the
payloads travel through the shared-memory ring — and answers in order.
:func:`pack_message` and :func:`recv_message` are the pipe's framing, used
by both ends: an 8-byte length, then a pickle.  The pipe only ever connects
a master to a process it started itself, so nothing from a network is
unpickled here.

A *function reference* describes the user's processing function in a way
that survives the trip to the child process:

* a dotted name string, ``"package.module:attribute"`` (or
  ``"package.module.attribute"``), resolved by import in the child and cached
  per process;
* a ``("file", path)`` tuple naming a Pando module file, re-bundled in the
  child with :func:`repro.master.bundler.bundle_module` (the paper's
  ``exports['/pando/1.0.0']`` convention);
* any picklable callable (e.g. the bound ``process`` method of a built-in
  application).

Both calling conventions of the code base are supported: plain functions
``fn(value) -> result`` and the paper's node-style ``fn(value, cb)`` with
``cb(err, result)``; the convention is detected once from the signature.  A
node-style function submitted to the pool must call its callback
synchronously — there is no event loop in the child.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import socket
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..analysis.annotations import any_thread
from ..errors import FrameCancelled, PandoError, WorkerCrashed
from .cancel import flag_is_set

__all__ = [
    "FunctionRef",
    "expects_callback",
    "pack_message",
    "recv_message",
    "resolve_callable",
    "run_batch",
    "run_shm_batch",
    "serve_frames",
]

FunctionRef = Union[str, Tuple[str, str], Callable[..., Any]]

#: Per-process cache of resolved (callable, expects_callback) pairs.
_RESOLVED: dict = {}


def resolve_callable(ref: FunctionRef) -> Callable[..., Any]:
    """Resolve a function reference to the callable it names."""
    if callable(ref):
        return ref
    if isinstance(ref, tuple) and len(ref) == 2 and ref[0] == "file":
        from ..master.bundler import bundle_module

        return bundle_module(ref[1]).apply
    if isinstance(ref, str):
        return _resolve_dotted(ref)
    raise PandoError(
        f"unsupported function reference {ref!r}: expected a callable, a "
        f"'module:attribute' string, or a ('file', path) tuple"
    )


def _resolve_dotted(ref: str) -> Callable[..., Any]:
    if ":" in ref:
        module_name, _, attr_path = ref.partition(":")
        candidates = [(module_name, attr_path)]
    else:
        # "package.module.attribute": try every split, innermost module first.
        parts = ref.split(".")
        candidates = [
            (".".join(parts[:index]), ".".join(parts[index:]))
            for index in range(len(parts) - 1, 0, -1)
        ]
    last_error: Exception = PandoError(f"cannot resolve function reference {ref!r}")
    for module_name, attr_path in candidates:
        try:
            target: Any = importlib.import_module(module_name)
        except ImportError as exc:
            last_error = exc
            continue
        try:
            for attr in attr_path.split("."):
                target = getattr(target, attr)
        except AttributeError as exc:
            last_error = exc
            continue
        if not callable(target):
            raise PandoError(f"function reference {ref!r} names a non-callable: {target!r}")
        return target
    raise PandoError(f"cannot resolve function reference {ref!r}: {last_error!r}")


def expects_callback(fn: Callable[..., Any]) -> bool:
    """True when *fn* follows the node-style ``fn(value, cb)`` convention."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    required = [
        parameter
        for parameter in signature.parameters.values()
        if parameter.kind
        in (parameter.POSITIONAL_ONLY, parameter.POSITIONAL_OR_KEYWORD)
        and parameter.default is parameter.empty
    ]
    return len(required) >= 2


def _prepared(ref: FunctionRef) -> Tuple[Callable[..., Any], bool]:
    key = ref if isinstance(ref, (str, tuple)) else None
    if key is not None and key in _RESOLVED:
        return _RESOLVED[key]
    fn = resolve_callable(ref)
    prepared = (fn, expects_callback(fn))
    if key is not None:
        _RESOLVED[key] = prepared
    return prepared


def _check_cancel(cancel: Optional[Tuple[str, int]], index: int, total: int) -> None:
    """Poll the pool's cancel flag at chunk boundaries of a frame.

    *cancel* is ``(flag_name, chunk)`` — see :mod:`repro.pool.cancel`.  The
    poll runs before value 0 (a frame that dequeues after the abort does no
    work at all) and then every *chunk* values, so a running frame computes
    at most one more chunk after the master raises the flag.
    """
    if cancel is None:
        return
    flag_name, chunk = cancel
    if index % chunk == 0 and flag_is_set(flag_name):
        raise FrameCancelled(completed=index, total=total)


def _apply(fn: Callable[..., Any], node_style: bool, value: Any) -> Any:
    if not node_style:
        return fn(value)
    box: dict = {}

    def cb(err: Any, result: Any = None) -> None:
        box["done"] = True
        box["err"] = err
        box["result"] = result

    fn(value, cb)
    if not box.get("done"):
        raise PandoError(
            f"node-style function {fn!r} did not call its callback synchronously; "
            f"the process-pool backend has no event loop in the child"
        )
    err = box["err"]
    if err is not None:
        raise err if isinstance(err, BaseException) else PandoError(repr(err))
    return box["result"]


@any_thread
def run_batch(
    ref: FunctionRef,
    values: List[Any],
    trace: Optional[Dict[str, Any]] = None,
    cancel: Optional[Tuple[str, int]] = None,
) -> Any:
    """Frame runner: apply the referenced function to a whole frame.

    One message per frame is what amortises the inter-process round trip;
    results come back as a list in input order — or, with a *trace* dict,
    as ``(results, trace)`` with the frame's summed ``exec_s`` added (a
    duration, never a timestamp: child and master clocks are not
    comparable).  An un-batched value is a frame of one.  With
    *cancel* the frame's value range is chunked against the pool's cancel
    flag and stops between chunks (:class:`~repro.errors.FrameCancelled`).
    """
    fn, node_style = _prepared(ref)
    total = len(values)
    if trace is None and cancel is None:
        return [_apply(fn, node_style, value) for value in values]
    start = time.perf_counter()
    out: List[Any] = []
    for index, value in enumerate(values):
        _check_cancel(cancel, index, total)
        out.append(_apply(fn, node_style, value))
    if trace is None:
        return out
    return out, dict(trace, exec_s=time.perf_counter() - start)


def run_shm_batch(
    ref: FunctionRef,
    ring_name: str,
    slot_size: int,
    entries: List[Any],
    min_bytes: int,
    trace: Optional[Dict[str, Any]] = None,
    cancel: Optional[Tuple[str, int]] = None,
) -> Any:
    """Frame runner for a shared-memory-framed batch.

    Each payload arrives as a control entry pointing into the master's
    :class:`~repro.net.shm_ring.ShmRing` (or inline, the fallback) and its
    result travels back the same way — only the tiny control records cross
    the pipe.  Values are applied in order; each result is written back into its own
    input's slot before the next value is touched, so a frame never needs
    more slots than its submission acquired.  A *trace* dict accumulates
    the user-function time across the frame (``exec_s``) and switches the
    return shape to ``(entries, trace)``.  With *cancel* the entry range is
    chunked against the pool's cancel flag like :func:`run_batch`; the
    master releases the frame's slots when the cancellation surfaces.
    """
    from ..net.shm_ring import load_entry, store_entry

    fn, node_style = _prepared(ref)
    out: List[Any] = []
    exec_s = 0.0
    total = len(entries)
    for index, entry in enumerate(entries):
        _check_cancel(cancel, index, total)
        value = load_entry(ring_name, slot_size, entry)
        if trace is None:
            result = _apply(fn, node_style, value)
        else:
            start = time.perf_counter()
            result = _apply(fn, node_style, value)
            exec_s += time.perf_counter() - start
        out.append(store_entry(ring_name, slot_size, entry, result, min_bytes=min_bytes))
    if trace is None:
        return out
    return out, dict(trace, exec_s=exec_s)


# ------------------------------------------------------------ the child's pipe
_LENGTH = struct.Struct("!Q")

#: below this a message goes out as one write; above it the body is not
#: copied behind its length prefix
_ONE_WRITE_BYTES = 1 << 16


def pack_message(message: Any) -> List[bytes]:
    """*message* as the pipe carries it: an 8-byte length, then its pickle."""
    body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    prefix = _LENGTH.pack(len(body))
    return [prefix + body] if len(body) < _ONE_WRITE_BYTES else [prefix, body]


def _recv_exactly(sock: socket.socket, size: int) -> bytearray:
    buffer = bytearray(size)
    view, got = memoryview(buffer), 0
    while got < size:
        count = sock.recv_into(view[got:])
        if not count:
            raise EOFError("the pipe's far end is closed")
        got += count
    return buffer


def recv_message(sock: socket.socket) -> Any:
    """Read one :func:`pack_message` message from *sock* (waits for all of it)."""
    (size,) = _LENGTH.unpack(_recv_exactly(sock, _LENGTH.size))
    return pickle.loads(_recv_exactly(sock, size))


def _portable(exc: Exception) -> Exception:
    """*exc* if it survives a pickle round trip, else a stand-in naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return WorkerCrashed(repr(exc))
    return exc


def serve_frames(
    sock: socket.socket,
    ref: FunctionRef,
    shm: Optional[Tuple[str, int, int]],
    cancel: Optional[Tuple[str, int]],
) -> None:
    """A pool child's main loop: answer frames until the master's end closes.

    A frame is ``(seq, payload, trace)`` and its answer ``(seq, ok, result)``;
    *shm* — ``(ring_name, slot_size, min_bytes)`` — selects
    :func:`run_shm_batch` over :func:`run_batch`.  Nothing a task raises or
    returns ends the loop: an exception (a result that does not pickle
    included) is the frame's answer with ``ok`` False.  The master closing
    its end does: an idle child reads EOF, a busy one fails to answer — so
    it stops after the frame it was running and never starts a prefetched
    one.
    """
    while True:
        try:
            seq, payload, trace = recv_message(sock)
        except (EOFError, OSError):
            return
        try:
            if shm is None:
                result = run_batch(ref, payload, trace, cancel)
            else:
                ring_name, slot_size, min_bytes = shm
                result = run_shm_batch(
                    ref, ring_name, slot_size, payload, min_bytes, trace, cancel
                )
            reply = pack_message((seq, True, result))
        except Exception as exc:  # the boundary that keeps the child serving
            reply = pack_message((seq, False, _portable(exc)))
        try:
            for part in reply:
                sock.sendall(part)
        except OSError:
            return
