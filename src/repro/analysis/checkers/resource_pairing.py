"""Checker: acquired resources are released (or handed off) on every exit.

The shm transport's correctness rests on the slot-ownership protocol:
every ``ShmRing.acquire()`` is balanced by exactly one ``release`` — on
delivery, cancellation, crash *and* close.  PR 5 property-tested that
dynamically; this checker enforces the static shape that makes it true:

* a variable bound to ``<ring>.acquire()`` must, on every ``return`` or
  fall-through exit, have been **released** (``release``/``release_all``)
  or have **escaped** — appended to a slots list, packed into a control
  entry, stored on an object, returned — i.e. ownership visibly moved to
  another holder;
* the same discipline for ``shared_memory.SharedMemory(...)`` handles
  (``close``/``unlink`` or escape), for ``Process(...)`` handles (``join``
  or escape to an owner whose children exit by themselves at EOF), for
  both ends of a ``Pipe()``/``socketpair()`` (``close`` or escape) and for a
  socket that was created, connected or accepted (``close``, or escape to
  the ``Endpoint`` that owns it from then on and closes it in its own
  ``close``);
* an acquire expression whose result is *discarded* is flagged outright —
  there is no way to ever release it.

What counts as an escape is deliberately conservative — any use that can
move ownership (argument to a foreign call, element of a container,
assignment value, return value) stops the tracking, so a missed leak is
possible but a false alarm is not.  Pure *uses* — ``slot is None`` tests,
arithmetic, and calls on the acquiring object itself
(``ring.write(slot, data)``) — keep the obligation alive.  ``if slot is
None:`` narrowing understands the non-blocking acquire (``None`` means
the ring was exhausted: nothing to release on that branch), and a release
inside ``try/finally`` covers every exit that passes through it, and an
acquire that is the last statement of a ``try`` body holds nothing in its own
handlers (it raised instead).  Raising paths are exempt, consistent with the
other path checkers.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Tuple

from ..findings import Finding
from ..flow import StructuredWalker

CHECKER_ID = "resource-pairing"

#: method names that end a tracked resource's lifetime when it is the
#: receiver (``handle.close()``) or an argument (``ring.release(slot)``)
RELEASE_METHODS = {"release", "release_all", "close", "unlink", "join"}

#: expression forms whose operands are *uses*, never ownership transfers
_USE_CONTEXTS = (ast.Compare, ast.BoolOp, ast.UnaryOp, ast.BinOp)


def _receiver_text(node: ast.expr) -> str:
    """A dotted rendering of a call receiver, for cheap matching."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse handles all 3.10+ exprs
        return ""


#: callables whose result is a tracked handle (or, for a pipe, two of them)
_CONSTRUCTORS = {
    "SharedMemory": ("shm", ""),
    "Process": ("process", ""),
    "Pipe": ("pipe", ""),
    "socketpair": ("pipe", ""),
    "socket": ("socket", ""),
    "create_server": ("socket", ""),
    "create_connection": ("socket", ""),
    "accept": ("socket", ""),
}


def _acquire_kind(call: ast.Call) -> Optional[Tuple[str, str]]:
    """Classify *call* as an acquire site: ``(kind, receiver_text)`` or None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr == "acquire" and not call.args and not call.keywords:
            receiver = _receiver_text(func.value)
            if "ring" in receiver.lower():
                return ("slot", receiver)
        return _CONSTRUCTORS.get(func.attr)
    if isinstance(func, ast.Name):
        return _CONSTRUCTORS.get(func.id)
    return None


# Abstract state: a frozenset of (var_name, acquire_line, kind, receiver)
# tuples still *held*.  Released or escaped resources leave the set.
_State = FrozenSet[Tuple[str, int, str, str]]

_DESCRIPTIONS = {
    "slot": "shm ring slot",
    "shm": "shared-memory handle",
    "process": "worker process",
    "pipe": "pipe end",
    "socket": "socket",
}


class _ResourceWalker(StructuredWalker):
    def __init__(self, path: str, qualname: str) -> None:
        self.path = path
        self.qualname = qualname
        self.findings: List[Finding] = []
        self._reported: set = set()

    # ------------------------------------------------------------- effects
    def eval_expr(self, state: _State, expr: ast.expr) -> _State:
        return self._eval(state, expr, escapes=True)

    def _eval(self, state: _State, node: ast.expr, escapes: bool) -> _State:
        if isinstance(node, ast.Name):
            if escapes:
                return self._drop_var(state, node.id)
            return state
        if isinstance(node, ast.Call):
            return self._eval_call(state, node)
        if isinstance(node, _USE_CONTEXTS):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    state = self._eval(state, child, escapes=False)
            return state
        if isinstance(node, ast.IfExp):
            state = self._eval(state, node.test, escapes=False)
            state = self._eval(state, node.body, escapes)
            return self._eval(state, node.orelse, escapes)
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Slice)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    state = self._eval(state, child, escapes=False)
            return state
        if isinstance(node, (ast.Lambda, ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
            return self.on_nested_def(state, node)
        # containers, starred, f-strings, yields, everything else: operand
        # uses may transfer ownership
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                state = self._eval(state, child, escapes=True)
        return state

    def _eval_call(self, state: _State, call: ast.Call) -> _State:
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = _receiver_text(func.value)
            if func.attr in RELEASE_METHODS:
                # ``handle.close()`` — the receiver is released;
                # ``ring.release(slot)`` — the arguments are released.
                state = self._drop_var(state, receiver)
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    for name_node in ast.walk(arg):
                        if isinstance(name_node, ast.Name):
                            state = self._drop_var(state, name_node.id)
                return state
            held_receivers = {entry[3] for entry in state}
            state = self._eval(state, func.value, escapes=False)
            arg_escapes = receiver not in held_receivers
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                state = self._eval(state, arg, escapes=arg_escapes)
            return state
        state = self._eval(state, func, escapes=False)
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            state = self._eval(state, arg, escapes=True)
        return state

    def eval_assign(self, state: _State, node: ast.stmt) -> _State:
        value = getattr(node, "value", None)
        targets = getattr(node, "targets", None) or (
            [node.target] if getattr(node, "target", None) is not None else []
        )
        acquire = self._acquire_in(value) if value is not None else None
        bound = self._bound_names(targets, acquire)
        if bound:
            kind, receiver = acquire
            for var in bound:
                state = self._drop_var(state, var)  # rebind loses the old handle
            # evaluate the rest of the RHS (receiver reads are uses)
            state = self._eval(state, value, escapes=False)
            return frozenset(
                state | {(var, node.lineno, kind, receiver) for var in bound}
            )
        if value is not None:
            state = self.eval_expr(state, value)
        for target in targets:
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name) and isinstance(
                    name_node.ctx, ast.Store
                ):
                    state = self._drop_var(state, name_node.id)
        return state

    @staticmethod
    def _bound_names(targets: list, acquire: Optional[Tuple[str, str]]) -> List[str]:
        """The variables an acquire statement binds handles to: one name,
        — ``a, b = Pipe()`` — the two ends of a pipe, or — ``sock, address =
        listener.accept()`` — the socket of the pair."""
        if acquire is None or len(targets) != 1:
            return []
        target = targets[0]
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, ast.Tuple) and all(
            isinstance(element, ast.Name) for element in target.elts
        ):
            if acquire[0] == "pipe":
                return [element.id for element in target.elts]
            if acquire[0] == "socket":
                return [target.elts[0].id]
        return []

    def _acquire_in(self, value: ast.expr) -> Optional[Tuple[str, str]]:
        """The acquire classification of *value* (looking through IfExp)."""
        if isinstance(value, ast.Call):
            return _acquire_kind(value)
        if isinstance(value, ast.IfExp):
            for branch in (value.body, value.orelse):
                if isinstance(branch, ast.Call):
                    kind = _acquire_kind(branch)
                    if kind is not None:
                        return kind
        return None

    def handler_snapshots(self, stmt: ast.Try, intermediate: list) -> list:
        # ``try: sock, address = listener.accept()`` / ``except OSError:
        # return`` — an acquire that raised acquired nothing, so the state
        # after it is not one its own handler can see.
        last = stmt.body[-1]
        if (
            len(intermediate) == len(stmt.body)
            and isinstance(last, ast.Assign)
            and self._acquire_in(last.value) is not None
        ):
            return intermediate[:-1]
        return intermediate

    def narrow(self, state: _State, test: ast.expr, branch: bool) -> Optional[_State]:
        base = super().narrow(state, test, branch)
        if base is None:
            return None
        state = base
        var, none_when_true = self._none_test(test)
        if var is not None and branch == none_when_true:
            # in the ``is None`` branch nothing was acquired for this var
            return frozenset(entry for entry in state if entry[0] != var)
        return state

    @staticmethod
    def _none_test(test: ast.expr) -> Tuple[Optional[str], bool]:
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.left, ast.Name)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            if isinstance(test.ops[0], ast.Is):
                return test.left.id, True
            if isinstance(test.ops[0], ast.IsNot):
                return test.left.id, False
        return None, False

    def at_exit(self, state: _State, node: object, kind: str) -> None:
        line = getattr(node, "lineno", 1) if node is not None else 1
        for var, acquire_line, resource_kind, _receiver in state:
            self._report(
                (var, acquire_line),
                line,
                f"{_DESCRIPTIONS[resource_kind]} {var!r} acquired at line "
                f"{acquire_line} is not released or handed off on this exit "
                f"path (use try/finally or release on every path)",
            )

    def on_nested_def(self, state: _State, node: ast.AST) -> _State:
        # a closure capturing the variable may release it later: escape
        captured = {
            child.id for child in ast.walk(node) if isinstance(child, ast.Name)
        }
        return frozenset(entry for entry in state if entry[0] not in captured)

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _drop_var(state: _State, var: str) -> _State:
        return frozenset(entry for entry in state if entry[0] != var)

    def _report(self, key, line: int, message: str) -> None:
        if key in self._reported:
            return  # loop unrolling and state forks revisit the same leak
        self._reported.add(key)
        self.findings.append(
            Finding(CHECKER_ID, self.path, line, message, function=self.qualname)
        )


class _DiscardVisitor(ast.NodeVisitor):
    """Flag acquire calls whose result is thrown away (never releasable)."""

    def __init__(self, path: str, qualname: str) -> None:
        self.path = path
        self.qualname = qualname
        self.findings: List[Finding] = []

    def visit_Expr(self, node: ast.Expr) -> None:
        if isinstance(node.value, ast.Call):
            kind = _acquire_kind(node.value)
            if kind is not None:
                self.findings.append(
                    Finding(
                        CHECKER_ID,
                        self.path,
                        node.lineno,
                        f"{_DESCRIPTIONS[kind[0]]} acquired and immediately "
                        f"discarded: the handle can never be released",
                        function=self.qualname,
                    )
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return None  # nested functions are indexed and checked separately

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef


def check(modules) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        for qualname, fn in module.functions.items():
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            walker = _ResourceWalker(module.path, qualname)
            walker.run(fn.body, frozenset())
            findings.extend(walker.findings)
            discard = _DiscardVisitor(module.path, qualname)
            for stmt in fn.body:
                discard.visit(stmt)
            findings.extend(discard.findings)
    return findings
