"""Checker: foreign threads must not walk into ``@loop_only`` code.

The scheduler subsystem (PR 4) has a single-ownership rule: mutable
scheduler/stream state is touched only from the event-loop thread.
Foreign threads — ``threading.Thread`` targets, executor threads (a
volunteer's tabs) and their done-callbacks — are allowed exactly two
crossings into the loop:
``scheduler.wake()`` (itself just ``loop.call_soon_threadsafe``) and the
``PushablePort`` ingress, which enqueues under a lock and wakes.

:mod:`repro.analysis.annotations` makes the rule declarative:
``@loop_only`` marks loop-owned functions, ``@any_thread`` marks the
sanctioned crossing points.  This checker then walks the call graph from
every **thread entry point**:

* ``threading.Thread(target=fn)`` targets,
* ``future.add_done_callback(fn)`` callbacks (run on executor threads),
* ``loop.call_soon_threadsafe(fn)`` *callers'* arguments are exempt — that
  is the sanctioned crossing itself,
* ``executor.submit(fn, ...)`` child entry points,
* every ``@any_thread`` function (declared foreign-thread-safe),

and reports any path that reaches a ``@loop_only`` function without
passing through a crossing call (``wake`` / ``call_soon_threadsafe``).
Unresolvable calls produce no edge (see :mod:`repro.analysis.callgraph`),
so this checker under-approximates rather than guesses.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from ..callgraph import CallGraph, FunctionInfo, calls_in
from ..findings import Finding

CHECKER_ID = "thread-ownership"

#: call names that hand work *to* the loop; traversal stops at them
CROSSING_CALLS = {"wake", "call_soon_threadsafe"}


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _spawn_targets(call: ast.Call) -> Tuple[str, List[ast.expr]]:
    """If *call* installs a callable on a foreign thread, return
    ``(reason, [callable exprs])``; otherwise ``("", [])``."""
    name = _call_name(call.func)
    if name == "Thread":
        for keyword in call.keywords:
            if keyword.arg == "target":
                return ("threading.Thread target", [keyword.value])
        return ("", [])
    if name == "add_done_callback" and call.args:
        return ("executor done-callback", [call.args[0]])
    if name == "submit" and call.args:
        return ("pool child entry point", [call.args[0]])
    return ("", [])


def _callables_in(expr: ast.expr) -> List[ast.expr]:
    """The directly-invokable pieces of a callback expression.

    A lambda target is looked *through*: the calls its body makes are the
    functions that will really run on the foreign thread.
    """
    if isinstance(expr, ast.Lambda):
        return [
            call.func
            for call in ast.walk(expr.body)
            if isinstance(call, ast.Call)
        ]
    return [expr]


class _Search:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.findings: List[Finding] = []
        self._reported: set = set()

    def roots(self) -> List[Tuple[FunctionInfo, str, Optional[FunctionInfo]]]:
        """(entry function, why it runs on a foreign thread, installer)."""
        found: List[Tuple[FunctionInfo, str, Optional[FunctionInfo]]] = []
        seen: set = set()
        for info in self.graph.functions.values():
            if info.ownership == "any_thread":
                if info.key not in seen:
                    seen.add(info.key)
                    found.append((info, "declared @any_thread", None))
        for caller in list(self.graph.functions.values()):
            for call in calls_in(caller.node):
                reason, exprs = _spawn_targets(call)
                if not reason:
                    continue
                for expr in exprs:
                    for func_expr in _callables_in(expr):
                        target = self.graph.resolve(caller, func_expr)
                        if target is None or target.key in seen:
                            continue
                        seen.add(target.key)
                        found.append((target, reason, caller))
        return found

    def run(self) -> None:
        for root, reason, installer in self.roots():
            self._walk(root, reason, installer)

    def _walk(
        self,
        root: FunctionInfo,
        reason: str,
        installer: Optional[FunctionInfo],
    ) -> None:
        if root.ownership == "loop_only":
            anchor = installer if installer is not None else root
            self._report(
                root,
                root,
                anchor,
                getattr(root.node, "lineno", 1),
                reason,
                [root.qualname],
            )
            return
        # BFS; remember one path per visited function for the report
        paths: Dict[Tuple[str, str], List[str]] = {root.key: [root.qualname]}
        queue = [root]
        while queue:
            current = queue.pop(0)
            for call in calls_in(current.node):
                if _call_name(call.func) in CROSSING_CALLS:
                    continue  # sanctioned hand-off to the loop thread
                callee = self.graph.resolve(current, call.func)
                if callee is None:
                    continue
                if callee.ownership == "loop_only":
                    self._report(
                        root,
                        callee,
                        current,
                        call.lineno,
                        reason,
                        paths[current.key] + [callee.qualname],
                    )
                    continue
                if callee.key in paths:
                    continue
                paths[callee.key] = paths[current.key] + [callee.qualname]
                queue.append(callee)

    def _report(
        self,
        root: FunctionInfo,
        callee: FunctionInfo,
        site: FunctionInfo,
        line: int,
        reason: str,
        path: List[str],
    ) -> None:
        key = (root.key, callee.key)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(
            Finding(
                CHECKER_ID,
                site.module.path,
                line,
                f"@loop_only function {callee.qualname!r} is reachable from "
                f"thread entry point {root.qualname!r} ({reason}) without "
                f"going through scheduler.wake() or call_soon_threadsafe()",
                function=site.qualname,
                detail="call path: " + " -> ".join(path),
            )
        )


def check(modules) -> List[Finding]:
    graph = CallGraph.build(modules)
    search = _Search(graph)
    search.run()
    return search.findings
