"""Child-process side of the process-pool backend.

:func:`serve_frames` is a pool child's main loop: it reads frames from the
pipe the master holds the other end of, runs each through one of the two
frame runners — :func:`run_batch`, or :func:`run_shm_batch` when the
payloads travel through the shared-memory ring — and answers in order.
:func:`answer` is the reply path it shares with a websocket volunteer's
tabs: run one DATA frame, pack its RESULT.  The bytes on the pipe are
:mod:`repro.net.wire`'s layout; this module knows records, not bytes.

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
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..analysis.annotations import any_thread
from ..errors import FrameCancelled, PandoError, WorkerCrashed
from ..net import wire
from .cancel import flag_is_set

__all__ = [
    "FunctionRef",
    "answer",
    "expects_callback",
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


# ------------------------------------------------------------ answering frames
def _portable(exc: Exception) -> Exception:
    """*exc* if it survives a pickle round trip, else a stand-in naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return WorkerCrashed(repr(exc))
    return exc


@any_thread
def answer(
    run: Callable[[List[Any], Optional[Dict[str, Any]]], Any],
    record: Dict[str, Any],
    values: List[Any],
    error: Callable[[Exception], Any] = _portable,
) -> Tuple[List[Any], Optional[Exception]]:
    """Run one DATA frame and pack its RESULT: ``(wire parts, failure)``.

    The one reply path of every worker — a pool child and a volunteer's tab.
    ``run(values, trace)`` is a frame runner with its function bound.
    Nothing it raises or returns escapes: an exception (a result that does
    not pickle included) is the frame's answer with ``ok`` False and
    ``error(exception)`` as its ``error`` — the exception itself on a pool's
    pipe, only its ``repr`` on a network — and comes back as *failure* for a
    caller that ends its session over one.
    """
    seq, trace = record.get("seq"), record.get("trace")
    try:
        results = run(values, trace)
        reply: Dict[str, Any] = {"kind": wire.RESULT, "seq": seq, "ok": True}
        if trace is not None:
            results, reply["trace"] = results
        return wire.encode(reply, results), None
    except Exception as exc:  # the boundary that keeps the worker serving
        reply = {"kind": wire.RESULT, "seq": seq, "ok": False, "error": error(exc)}
        return wire.encode(reply), exc


def serve_frames(
    sock: socket.socket,
    ref: FunctionRef,
    shm: Optional[Tuple[str, int, int]],
    cancel: Optional[Tuple[str, int]],
) -> None:
    """A pool child's main loop: answer frames until the master's end closes.

    Each message is one DATA frame in the codec's layout
    (:mod:`repro.net.wire`; plain pickle, the master forked this process)
    and :func:`answer` packs its RESULT; *shm* — ``(ring_name, slot_size,
    min_bytes)`` — selects :func:`run_shm_batch` over :func:`run_batch`,
    the frame's values then being ring entries.  The master closing its end
    stops the loop: an idle child reads EOF, a busy one fails to answer — so
    it stops after the frame it was running and never starts a prefetched
    one.
    """
    if shm is None:

        def run(values: List[Any], trace: Optional[Dict[str, Any]]) -> Any:
            return run_batch(ref, values, trace, cancel)

    else:
        ring_name, slot_size, min_bytes = shm

        def run(values: List[Any], trace: Optional[Dict[str, Any]]) -> Any:
            return run_shm_batch(ref, ring_name, slot_size, values, min_bytes, trace, cancel)

    while True:
        try:
            payload = wire.read_pipe_message(sock)
        except (EOFError, OSError):
            return
        record, values = wire.decode(payload, trusted=True)
        parts, _failure = answer(run, record, values)
        try:
            for part in wire.pipe_message(parts):
                sock.sendall(part)
        except OSError:
            return
