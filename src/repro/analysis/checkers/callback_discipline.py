"""Checker: every pull-stream callback is answered exactly once per path.

The ``read(end, cb)`` contract (see :mod:`repro.pullstream.protocol`)
requires exactly one answer per request.  The implementation bugs PR 1–5
kept finding were of two shapes: an early ``return`` on some error branch
that never answered ``cb`` (the caller waits forever — the stalled-lender
class of bug), and a path that answered twice (the double-delivery class
``ProtocolChecker`` catches at runtime).

For every function with a parameter named ``cb`` or ``callback`` this
checker walks all structured paths and verifies that each ``return`` or
fall-through exit either

* invoked the callback at least once (and at most once), or
* **handed it off**: stored it (``self._waiting = cb``), passed it to
  another call (``self._upstream(end, cb)``), captured it in a nested
  function or lambda (the trampoline idiom), or returned it.

Raising paths are exempt — an exception transfers the obligation to the
caller, and flagging them would drown the signal (validation guards raise
before any async work starts).

A **stage** object parks an ask in a slot (``self.cb = cb``) and answers it
from a bound-method continuation that has no callback parameter of its
own.  Such a method starts with the ask handed off (it is in the slot); once
it *takes* the ask out — rebinds the slot, usually
``cb, self.cb = self.cb, None`` — every path must answer or hand off what it
took, under the same rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..findings import Finding
from ..flow import StructuredWalker

CHECKER_ID = "callback-discipline"

#: Parameter names treated as pull-stream answer callbacks.
CALLBACK_PARAMS = ("cb", "callback")


@dataclass(frozen=True)
class _State:
    calls: int  # 0, 1 or 2 ("two or more")
    handed: bool


class _CallbackWalker(StructuredWalker):
    def __init__(self, cb_name: str, path: str, qualname: str) -> None:
        self.cb_name = cb_name
        self.path = path
        self.qualname = qualname
        self.findings: List[Finding] = []
        self._reported_lines: set = set()

    # ------------------------------------------------------------- effects
    def eval_expr(self, state: _State, expr: ast.expr) -> _State:
        for node in self._eval_order(expr):
            if isinstance(node, ast.Call) and self._is_cb(node.func):
                if state.calls >= 1:
                    self._report(
                        node.lineno,
                        f"callback {self.cb_name!r} may be invoked a second "
                        f"time on this path",
                    )
                state = _State(min(2, state.calls + 1), state.handed)
            elif self._is_cb(node):
                # Any non-invocation use — argument, assignment value,
                # container element, attribute access — is a hand-off.
                state = _State(state.calls, True)
            elif isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._references_cb(node):
                    state = _State(state.calls, True)
        return state

    def _eval_order(self, expr: ast.expr):
        """The expression's nodes, outer first, skipping nested function bodies
        (they execute later; a mere reference is a hand-off handled above)."""
        stack = [expr]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call) and self._is_cb(node.func):
                # recurse into the arguments but not the func name itself
                stack.extend(node.args)
                stack.extend(kw.value for kw in node.keywords)
                continue
            # walk ALL children, not just ast.expr: keyword arguments and
            # comprehension clauses wrap the expressions that matter
            # (``drain(done=callback)`` is a hand-off)
            stack.extend(ast.iter_child_nodes(node))

    def eval_assign(self, state: _State, node: ast.stmt) -> _State:
        value = getattr(node, "value", None)
        if value is not None:
            state = self.eval_expr(state, value)
        # an assignment *target* mentioning cb rebinds it; stop tracking by
        # treating the rebind as a hand-off of the old value
        for target in getattr(node, "targets", None) or [getattr(node, "target", None)]:
            if target is not None and self._target_rebinds_cb(target):
                state = _State(state.calls, True)
        return state

    def on_nested_def(self, state: _State, node: ast.AST) -> _State:
        if self._references_cb(node):
            return _State(state.calls, True)
        return state

    def at_exit(self, state: _State, node: object, kind: str) -> None:
        if state.calls == 0 and not state.handed:
            line = getattr(node, "lineno", 1) if node is not None else 1
            how = "returns" if kind == "return" else "falls off the end"
            self._report(
                line,
                f"a path {how} without invoking or handing off "
                f"{self.cb_name!r} (the asker waits forever)",
            )

    # ------------------------------------------------------------- helpers
    def _is_cb(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == self.cb_name

    def _references_cb(self, node: ast.AST) -> bool:
        return any(
            isinstance(child, ast.Name) and child.id == self.cb_name
            for child in ast.walk(node)
        )

    def _target_rebinds_cb(self, target: ast.AST) -> bool:
        if isinstance(target, ast.Name):
            return target.id == self.cb_name
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(self._target_rebinds_cb(element) for element in target.elts)
        return False

    def _report(self, line: int, message: str) -> None:
        if line in self._reported_lines:
            return  # loop unrolling walks statements twice
        self._reported_lines.add(line)
        self.findings.append(
            Finding(CHECKER_ID, self.path, line, message, function=self.qualname)
        )


class _SlotWalker(_CallbackWalker):
    """Walk a stage's continuation: the callback lives in ``self.<slot>``."""

    def __init__(self, slots: Set[str], path: str, qualname: str) -> None:
        super().__init__(f"self.{sorted(slots)[0]}", path, qualname)
        self.slots = slots
        #: local names the taken ask was bound to
        self.aliases: Set[str] = set()

    def _is_cb(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.aliases
        return self._slot_of(node) is not None

    def _references_cb(self, node: ast.AST) -> bool:
        return any(self._is_cb(child) for child in ast.walk(node))

    def _slot_of(self, node: ast.AST) -> Optional[str]:
        attr = _self_attr(node)
        return attr if attr in self.slots else None

    def eval_assign(self, state: _State, node: ast.stmt) -> _State:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        value = getattr(node, "value", None)
        if len(targets) != 1 or value is None:
            return super().eval_assign(state, node)
        target = targets[0]
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            pairs = list(zip(target.elts, value.elts))
        else:
            pairs = [(target, value)]
        took = False
        for element, element_value in pairs:
            slot = self._slot_of(element)
            if slot is not None and not self._is_cb(element_value):
                # The slot is emptied: the ask is now this method's to answer.
                took = True
                self.cb_name = f"self.{slot}"
                state = self.eval_expr(state, element_value)
            elif isinstance(element, ast.Name) and self._slot_of(element_value):
                self.aliases.add(element.id)
            else:
                state = self.eval_expr(state, element_value)
                if slot is not None:
                    state = _State(state.calls, True)  # parked again
        if took:
            state = _State(0, False)
        return state


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when *node* is ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _stage_slots(module) -> Dict[str, Set[str]]:
    """Class name -> the slots its methods park an ask's callback in."""
    slots: Dict[str, Set[str]] = {}
    for qualname, fn in module.functions.items():
        owner = qualname.rpartition(".")[0]
        cb_name = _callback_param(fn) if _is_method(module, owner, fn) else None
        if cb_name is None:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and getattr(node.value, "id", None) == cb_name:
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        slots.setdefault(owner, set()).add(attr)
    return slots


def _is_method(module, owner: str, fn: ast.AST) -> bool:
    params = fn.args.posonlyargs + fn.args.args
    return (
        owner.rpartition(".")[2] in module.classes
        and bool(params)
        and params[0].arg == "self"
    )


def _callback_param(fn: ast.AST) -> Optional[str]:
    args = fn.args
    names = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
    defaults = {}
    positional = args.posonlyargs + args.args
    for arg, default in zip(reversed(positional), reversed(args.defaults)):
        defaults[arg.arg] = default
    for keyword_arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            defaults[keyword_arg.arg] = default
    for name in names:
        if name in CALLBACK_PARAMS:
            # An optional callback (``cb=None``) is legitimately droppable.
            if name in defaults:
                return None
            return name
    return None


def check(modules) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        stage_slots = _stage_slots(module)
        for qualname, fn in module.functions.items():
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cb_name = _callback_param(fn)
            if cb_name is not None:
                walker = _CallbackWalker(cb_name, module.path, qualname)
                walker.run(fn.body, _State(0, False))
                findings.extend(walker.findings)
                continue
            owner, _, name = qualname.rpartition(".")
            slots = stage_slots.get(owner)
            if slots and name != "__init__" and _is_method(module, owner, fn):
                # a continuation starts with the ask still parked in its slot
                walker = _SlotWalker(slots, module.path, qualname)
                walker.run(fn.body, _State(0, True))
                findings.extend(walker.findings)
    return findings
