"""Checker: no blocking primitives on the event-loop thread.

The scheduler's fairness guarantee (PR 4) holds only if every dispatch
returns promptly: one ``time.sleep`` or untimed ``Future.result()`` inside
a dispatch freezes every pool, channel and timer sharing the loop.  This
checker computes the set of functions reachable from the loop's dispatch
machinery and flags the classic blocking calls inside it:

* ``time.sleep(...)``;
* ``<future>.result()`` with no ``timeout`` — the bounded form used by the
  pool's blocking fallback is fine;
* ``<lock/sem/cond>.acquire()`` with no arguments (untimed);
* ``<queue>.get()`` / ``<event/cond>.wait()`` with no arguments;
* ``select(...)`` in any form, bounded or not, anywhere but the loop's own
  wait (:data:`SANCTIONED_WAIT`, ``Loop._poll``): the loop waits in one
  place, so a second ``select`` is a second wait.

Roots are the loop's own entry points: ``EventLoopScheduler``'s dispatch
machinery, ``Loop.run_once``, the ``ready``/``dispatch``/``live``/
``cancel_pending`` methods of every ``EventSource`` subclass, and any
function declared ``@loop_only`` (loop-owned by definition).  Receiver
matching is textual (a receiver mentioning ``future``, ``lock``, ``queue``
…), which is the same naming-convention bet the resource checker makes:
cheap, predictable, and easy to satisfy or suppress.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from ..callgraph import CallGraph, FunctionInfo, calls_in
from ..findings import Finding

CHECKER_ID = "blocking-call-on-loop"

#: method names on EventSource subclasses that execute on the loop thread
_SOURCE_METHODS = ("ready", "dispatch", "live", "cancel_pending")

#: explicit loop entry points by qualname suffix
_NAMED_ROOTS = (
    "EventLoopScheduler.dispatch_round",
    "EventLoopScheduler.run",
    "Loop.run_once",
)

#: the one function allowed to wait in ``select`` on the loop thread
SANCTIONED_WAIT = "Loop._poll"


def _receiver_text(func: ast.Attribute) -> str:
    try:
        return ast.unparse(func.value).lower()
    except Exception:  # pragma: no cover - unparse handles all 3.10+ exprs
        return ""


def _has_timeout(call: ast.Call) -> bool:
    if call.args:
        return True
    return any(keyword.arg in ("timeout", "blocking", "block") for keyword in call.keywords)


def _blocking_reason(call: ast.Call, qualname: str = "") -> Optional[str]:
    """Why *call*, made in function *qualname*, blocks the loop thread, or
    None if it does not."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name == "select" and not qualname.endswith(SANCTIONED_WAIT):
        return f"select() is a second wait beside the loop's own ({SANCTIONED_WAIT})"
    if not isinstance(func, ast.Attribute):
        return None
    receiver = _receiver_text(func)
    if func.attr == "sleep" and receiver == "time":
        return "time.sleep() stalls every source sharing the loop"
    if _has_timeout(call):
        return None  # a bounded wait is a deliberate, visible trade-off
    if func.attr == "result" and ("future" in receiver or "fut" in receiver):
        return "untimed Future.result() can wait forever on a lost worker"
    if func.attr == "acquire" and any(
        token in receiver for token in ("lock", "sem", "cond")
    ):
        return "untimed lock acquire can deadlock the dispatch loop"
    if func.attr == "get" and "queue" in receiver:
        return "untimed queue.get() parks the loop until a producer appears"
    if func.attr == "wait" and any(
        token in receiver for token in ("event", "lock", "cond", "barrier")
    ):
        return "untimed wait() parks the loop thread"
    return None


class _Search:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.findings: List[Finding] = []
        self._reported: set = set()

    def roots(self) -> List[Tuple[FunctionInfo, str]]:
        found: List[Tuple[FunctionInfo, str]] = []
        source_classes = set(self.graph.subclasses_of("EventSource"))
        for info in self.graph.functions.values():
            qualname = info.qualname
            if any(
                qualname == root or qualname.endswith("." + root)
                for root in _NAMED_ROOTS
            ):
                found.append((info, "scheduler dispatch machinery"))
            elif info.cls in source_classes and qualname.split(".")[-1] in _SOURCE_METHODS:
                found.append((info, f"EventSource hook {qualname}"))
            elif info.ownership == "loop_only":
                found.append((info, f"@loop_only function {qualname}"))
        return found

    def run(self) -> None:
        # one shared reachability sweep: a function is scanned once, with
        # the first root that reached it named in the report
        paths: Dict[Tuple[str, str], List[str]] = {}
        queue: List[FunctionInfo] = []
        for root, reason in self.roots():
            if root.key in paths:
                continue
            paths[root.key] = [f"{root.qualname} ({reason})"]
            queue.append(root)
        while queue:
            current = queue.pop(0)
            self._scan(current, paths[current.key])
            for call in calls_in(current.node):
                callee = self.graph.resolve(current, call.func)
                if callee is None or callee.key in paths:
                    continue
                paths[callee.key] = paths[current.key] + [callee.qualname]
                queue.append(callee)

    def _scan(self, info: FunctionInfo, path: List[str]) -> None:
        for call in calls_in(info.node):
            reason = _blocking_reason(call, info.qualname)
            if reason is None:
                continue
            key = (info.module.path, call.lineno)
            if key in self._reported:
                continue
            self._reported.add(key)
            self.findings.append(
                Finding(
                    CHECKER_ID,
                    info.module.path,
                    call.lineno,
                    f"blocking call on the event-loop thread: {reason}",
                    function=info.qualname,
                    detail="reached via: " + " -> ".join(path),
                )
            )


def check(modules) -> List[Finding]:
    graph = CallGraph.build(modules)
    search = _Search(graph)
    search.run()
    return search.findings
