"""A structured-control-flow path walker for per-function checkers.

The callback-discipline and resource-pairing checkers both answer the same
shape of question: *on every path from function entry to a normal exit, did
a required event happen?*  Python's structured statements make that
answerable without building a CFG: :class:`StructuredWalker` interprets a
function body over a small set of abstract states, forking at ``if``/
``try`` and merging afterwards, and calls a checker hook at every exit.

Design decisions that keep the pass both useful and quiet:

* **States are small frozen values** supplied by the checker; the walker
  only unions sets of them, so path explosion is bounded by the state
  lattice, not by the number of syntactic paths.
* **Loops are unrolled twice** (with saturating states this reaches the
  fixed point): enough to notice a second callback invocation on the next
  iteration, without a full abstract-interpretation fixpoint engine.
* **``raise`` exits are not checked.**  A propagating exception hands the
  obligation to the caller (and, for resources, to an enclosing
  ``try/finally``); flagging every raising path would bury the true
  positives in noise.  ``return`` and fall-through exits are checked, with
  the effects of enclosing ``finally`` blocks applied first.
* **``except`` handlers are entered from every intermediate state** of
  their ``try`` body — the exception may have struck anywhere — which is
  the conservative join.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Sequence

__all__ = ["StructuredWalker", "FlowOut"]

#: Safety bound on the abstract-state set; a checker whose lattice explodes
#: past this is merged coarsely rather than slowing the whole pass down.
MAX_STATES = 256


class FlowOut:
    """States leaving a statement sequence, keyed by how they left."""

    __slots__ = ("next", "breaks", "continues", "returns")

    def __init__(self) -> None:
        self.next: set = set()
        self.breaks: set = set()
        self.continues: set = set()
        self.returns: set = set()


def _cap(states: set) -> set:
    if len(states) > MAX_STATES:  # pragma: no cover - defensive bound
        return set(list(states)[:MAX_STATES])
    return states


class StructuredWalker:
    """Interpret a function body over checker-supplied abstract states.

    Subclasses override:

    ``eval_expr(state, expr) -> state``
        Apply the effects of evaluating *expr* (record findings as a side
        effect).
    ``eval_assign(state, node) -> state``
        Apply an assignment statement (default: evaluate the value).
    ``narrow(state, test, branch) -> state | None``
        Refine *state* under *test* being truthy (``branch=True``) or
        falsy; return ``None`` to prune an infeasible branch.
    ``at_exit(state, node, kind)``
        Called for every state reaching a ``return`` (*kind* ``"return"``)
        or falling off the end (*kind* ``"fall"``).
    ``on_nested_def(state, node) -> state``
        A nested ``def``/``lambda``/comprehension was encountered; its body
        is *not* walked.
    """

    def run(self, body: Sequence[ast.stmt], initial_state: object) -> None:
        self._finally_stack: List[Sequence[ast.stmt]] = []
        out = self.walk(body, {initial_state})
        last = body[-1] if body else None
        for state in out.next:
            self.at_exit(state, last, "fall")

    # ---------------------------------------------------------------- hooks
    def eval_expr(self, state: object, expr: ast.expr) -> object:  # pragma: no cover
        return state

    def eval_assign(self, state: object, node: ast.stmt) -> object:
        value = getattr(node, "value", None)
        if value is not None:
            state = self.eval_expr(state, value)
        return state

    def narrow(self, state: object, test: ast.expr, branch: bool) -> object:
        # Constant tests prune the impossible branch (``while True`` only
        # exits through ``break``); checkers refine further.
        if isinstance(test, ast.Constant):
            if bool(test.value) != branch:
                return None
        return state

    def at_exit(self, state: object, node: object, kind: str) -> None:  # pragma: no cover
        return None

    def on_nested_def(self, state: object, node: ast.AST) -> object:
        return state

    # ------------------------------------------------------------ traversal
    def walk(
        self,
        stmts: Sequence[ast.stmt],
        states: set,
        intermediate: List[set] = None,
    ) -> FlowOut:
        """Interpret *stmts* from *states*; optionally record the state set
        after each statement (``try``-handler entry joins)."""
        out = FlowOut()
        current = set(states)
        for stmt in stmts:
            if not current:
                break
            step = self._walk_stmt(stmt, current)
            out.breaks |= step.breaks
            out.continues |= step.continues
            out.returns |= step.returns
            current = _cap(step.next)
            if intermediate is not None:
                intermediate.append(set(current))
        out.next = current
        return out

    def _walk_stmt(self, stmt: ast.stmt, states: set) -> FlowOut:
        out = FlowOut()
        handler = getattr(self, "_stmt_" + type(stmt).__name__, None)
        if handler is not None:
            return handler(stmt, states)
        # Default: evaluate every expression the statement contains directly
        # (covers Expr, Assert, Delete, simple statements).
        next_states = set()
        for state in states:
            for expr in ast.iter_child_nodes(stmt):
                if isinstance(expr, ast.expr):
                    state = self.eval_expr(state, expr)
            next_states.add(state)
        out.next = next_states
        return out

    # -- statement forms ----------------------------------------------------
    def _stmt_Expr(self, stmt: ast.Expr, states: set) -> FlowOut:
        out = FlowOut()
        out.next = {self.eval_expr(state, stmt.value) for state in states}
        return out

    def _stmt_Assign(self, stmt: ast.Assign, states: set) -> FlowOut:
        out = FlowOut()
        out.next = {self.eval_assign(state, stmt) for state in states}
        return out

    _stmt_AnnAssign = _stmt_Assign
    _stmt_AugAssign = _stmt_Assign

    def _stmt_Return(self, stmt: ast.Return, states: set) -> FlowOut:
        out = FlowOut()
        for state in states:
            if stmt.value is not None:
                state = self.eval_expr(state, stmt.value)
            for exit_state in self._apply_finallys(state):
                self.at_exit(exit_state, stmt, "return")
                out.returns.add(exit_state)
        return out

    def _stmt_Raise(self, stmt: ast.Raise, states: set) -> FlowOut:
        for state in states:
            if stmt.exc is not None:
                self.eval_expr(state, stmt.exc)
        return FlowOut()  # raising paths are not checked

    def _stmt_Break(self, _stmt: ast.Break, states: set) -> FlowOut:
        out = FlowOut()
        out.breaks = set(states)
        return out

    def _stmt_Continue(self, _stmt: ast.Continue, states: set) -> FlowOut:
        out = FlowOut()
        out.continues = set(states)
        return out

    def _stmt_Pass(self, _stmt: ast.Pass, states: set) -> FlowOut:
        out = FlowOut()
        out.next = set(states)
        return out

    _stmt_Global = _stmt_Pass
    _stmt_Nonlocal = _stmt_Pass
    _stmt_Import = _stmt_Pass
    _stmt_ImportFrom = _stmt_Pass

    def _stmt_FunctionDef(self, stmt: ast.stmt, states: set) -> FlowOut:
        out = FlowOut()
        out.next = {self.on_nested_def(state, stmt) for state in states}
        return out

    _stmt_AsyncFunctionDef = _stmt_FunctionDef
    _stmt_ClassDef = _stmt_FunctionDef
    _stmt_Lambda = _stmt_FunctionDef  # pragma: no cover - Lambda is an expr

    def _stmt_If(self, stmt: ast.If, states: set) -> FlowOut:
        out = FlowOut()
        true_states, false_states = set(), set()
        for state in states:
            state = self.eval_expr(state, stmt.test)
            narrowed_true = self.narrow(state, stmt.test, True)
            if narrowed_true is not None:
                true_states.add(narrowed_true)
            narrowed_false = self.narrow(state, stmt.test, False)
            if narrowed_false is not None:
                false_states.add(narrowed_false)
        for branch_states, body in (
            (true_states, stmt.body),
            (false_states, stmt.orelse),
        ):
            if not branch_states:
                continue
            if body:
                branch_out = self.walk(body, branch_states)
                out.next |= branch_out.next
                out.breaks |= branch_out.breaks
                out.continues |= branch_out.continues
                out.returns |= branch_out.returns
            else:
                out.next |= branch_states
        return out

    def _stmt_While(self, stmt: ast.While, states: set) -> FlowOut:
        return self._loop(stmt, states, test=stmt.test)

    def _stmt_For(self, stmt: ast.For, states: set) -> FlowOut:
        states = {self.eval_expr(state, stmt.iter) for state in states}
        return self._loop(stmt, states, test=None)

    _stmt_AsyncFor = _stmt_For

    def _loop(self, stmt, states: set, test) -> FlowOut:
        out = FlowOut()
        entry = set(states)
        seen_exits: set = set()
        for _iteration in range(2):  # saturating states: 2 unrolls reach the fixpoint
            body_entry = set()
            for state in entry:
                if test is not None:
                    state = self.eval_expr(state, test)
                    exited = self.narrow(state, test, False)
                    if exited is not None:
                        seen_exits.add(exited)
                    state = self.narrow(state, test, True)
                    if state is None:
                        continue
                else:
                    seen_exits.add(state)  # a for-loop may run zero times
                body_entry.add(state)
            if not body_entry:
                break
            body_out = self.walk(stmt.body, body_entry)
            out.returns |= body_out.returns
            seen_exits |= body_out.breaks
            entry = _cap(body_out.next | body_out.continues)
        # after the unrolls, whatever is still circulating may also exit
        for state in entry:
            if test is not None:
                exited = self.narrow(state, test, False)
                if exited is not None:
                    seen_exits.add(exited)
            else:
                seen_exits.add(state)
        if stmt.orelse:
            else_out = self.walk(stmt.orelse, seen_exits)
            out.next |= else_out.next
            out.returns |= else_out.returns
            out.breaks |= else_out.breaks
            out.continues |= else_out.continues
        else:
            out.next |= seen_exits
        return out

    def _stmt_With(self, stmt: ast.With, states: set) -> FlowOut:
        for item in stmt.items:
            states = {self.eval_with_item(state, item) for state in states}
        return self.walk(stmt.body, states)

    _stmt_AsyncWith = _stmt_With

    def eval_with_item(self, state: object, item: ast.withitem) -> object:
        return self.eval_expr(state, item.context_expr)

    def _stmt_Try(self, stmt: ast.Try, states: set) -> FlowOut:
        out = FlowOut()
        if stmt.finalbody:
            self._finally_stack.append(stmt.finalbody)
        try:
            intermediate: List[set] = []
            body_out = self.walk(stmt.body, states, intermediate=intermediate)
            handler_entry = set(states)
            for snapshot in self.handler_snapshots(stmt, intermediate):
                handler_entry |= snapshot
            handler_entry = _cap(handler_entry)
            merged = FlowOut()
            merged.next |= body_out.next
            merged.breaks |= body_out.breaks
            merged.continues |= body_out.continues
            merged.returns |= body_out.returns
            for handler in stmt.handlers:
                handler_out = self.walk(handler.body, handler_entry)
                merged.next |= handler_out.next
                merged.breaks |= handler_out.breaks
                merged.continues |= handler_out.continues
                merged.returns |= handler_out.returns
            if stmt.orelse and body_out.next:
                else_out = self.walk(stmt.orelse, body_out.next)
                merged.next = (merged.next - body_out.next) | else_out.next
                merged.breaks |= else_out.breaks
                merged.continues |= else_out.continues
                merged.returns |= else_out.returns
        finally:
            if stmt.finalbody:
                self._finally_stack.pop()
        if stmt.finalbody:
            out.next = self.walk(stmt.finalbody, merged.next).next if merged.next else set()
            out.breaks = self.walk(stmt.finalbody, merged.breaks).next if merged.breaks else set()
            out.continues = (
                self.walk(stmt.finalbody, merged.continues).next if merged.continues else set()
            )
            # returns already passed through the finally via _apply_finallys
            out.returns = merged.returns
        else:
            out = merged
        return out

    _stmt_TryStar = _stmt_Try

    def handler_snapshots(self, stmt: ast.Try, intermediate: List[set]) -> List[set]:
        """The after-statement states of *stmt*'s body a handler may be
        entered from.  All of them by default — the last one stands in for
        whatever its statement did before it raised."""
        return intermediate

    def _apply_finallys(self, state: object) -> Iterable[object]:
        """Run every enclosing ``finally`` body over *state* (innermost first)."""
        states = {state}
        for finalbody in reversed(self._finally_stack):
            next_states = set()
            for current in states:
                next_states |= self.walk(finalbody, {current}).next
            states = _cap(next_states)
            if not states:
                break
        return states
