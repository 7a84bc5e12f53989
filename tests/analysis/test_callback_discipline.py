"""callback-discipline: exactly one answer per path, or a visible hand-off."""

from __future__ import annotations

import textwrap

CHECK = "callback-discipline"


class TestSeededViolations:
    def test_early_return_without_answer_is_caught(self, findings_of):
        findings = findings_of(
            """
            def node(value, cb):
                if value is None:
                    return  # bug: the asker waits forever
                cb(None, value)
            """,
            CHECK,
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.checker == CHECK
        assert finding.function == "node"
        assert "waits forever" in finding.message
        assert finding.line == 4  # the bare return

    def test_fallthrough_without_answer_is_caught(self, findings_of):
        findings = findings_of(
            """
            def node(value, cb):
                if value > 0:
                    cb(None, value)
                # bug: negative values fall off the end unanswered
            """,
            CHECK,
        )
        assert len(findings) == 1
        assert "falls off the end" in findings[0].message

    def test_double_invocation_is_caught(self, findings_of):
        findings = findings_of(
            """
            def node(value, cb):
                try:
                    cb(None, compute(value))
                except Exception as exc:
                    cb(exc, None)  # bug: fires again if cb itself raised
            """,
            CHECK,
        )
        assert len(findings) == 1
        assert "second" in findings[0].message

    def test_callback_named_callback_is_tracked_too(self, findings_of):
        findings = findings_of(
            """
            def node(value, callback):
                if value:
                    return
                callback(None, value)
            """,
            CHECK,
        )
        assert len(findings) == 1
        assert "'callback'" in findings[0].message


class TestCleanExemplars:
    def test_answer_on_every_branch_is_clean(self, findings_of):
        assert not findings_of(
            """
            def node(value, cb):
                if value is None:
                    cb(ValueError("empty"), None)
                    return
                cb(None, value)
            """,
            CHECK,
        )

    def test_compute_then_answer_shape_is_clean(self, findings_of):
        # The shape the app layer was refactored to in this PR.
        assert not findings_of(
            """
            def process(value, cb):
                try:
                    result = compute(value)
                except Exception as exc:
                    cb(exc, None)
                    return
                cb(None, result)
            """,
            CHECK,
        )

    def test_storing_the_callback_is_a_handoff(self, findings_of):
        assert not findings_of(
            """
            def read(self, end, cb):
                if self.buffer:
                    cb(None, self.buffer.pop())
                    return
                self._waiting = cb  # parked for the next push
            """,
            CHECK,
        )

    def test_passing_the_callback_on_is_a_handoff(self, findings_of):
        assert not findings_of(
            """
            def read(end, cb):
                upstream(end, cb)
            """,
            CHECK,
        )

    def test_keyword_argument_handoff_is_recognised(self, findings_of):
        # drain(done=callback): the callback travels inside an ast.keyword.
        assert not findings_of(
            """
            def on_end(callback):
                return drain(op=None, done=callback)
            """,
            CHECK,
        )

    def test_capture_in_nested_function_is_a_handoff(self, findings_of):
        assert not findings_of(
            """
            def node(value, cb):
                def later(err, result):
                    cb(err, result)
                schedule(later)
            """,
            CHECK,
        )

    def test_raising_paths_are_exempt(self, findings_of):
        assert not findings_of(
            """
            def node(value, cb):
                if value is None:
                    raise ValueError("no value")
                cb(None, value)
            """,
            CHECK,
        )

    def test_optional_callback_parameter_is_skipped(self, findings_of):
        # cb=None is legitimately droppable; not a pull-stream answer slot.
        assert not findings_of(
            """
            def fire(value, cb=None):
                if cb is None:
                    return
                cb(None, value)
            """,
            CHECK,
        )

    def test_functions_without_callback_params_are_ignored(self, findings_of):
        assert not findings_of(
            """
            def plain(a, b):
                return a + b
            """,
            CHECK,
        )


_STAGE = """
class Stage:
    def __init__(self, read):
        self.read = read
        self.cb = None

    def source(self, end, cb):
        self.cb = cb
        self.read(end, self.answer)

    def answer(self, end, value):
{body}
"""


def _stage(body: str) -> str:
    """A stage whose ``answer`` continuation has *body*."""
    return _STAGE.format(body=textwrap.indent(textwrap.dedent(body).strip("\n"), " " * 8))


class TestBoundMethodStages:
    """A continuation answering the ask its stage parked in ``self.cb``."""

    def test_taken_ask_dropped_on_a_path_is_caught(self, findings_of):
        findings = findings_of(
            _stage(
                """
                cb, self.cb = self.cb, None
                if end is not None:
                    return  # bug: the taken ask is never answered
                cb(None, value)
                """
            ),
            CHECK,
        )
        assert len(findings) == 1
        assert findings[0].function == "Stage.answer"
        assert "'self.cb'" in findings[0].message

    def test_clearing_the_slot_without_answering_is_caught(self, findings_of):
        findings = findings_of(_stage("self.cb = None"), CHECK)
        assert len(findings) == 1
        assert "falls off the end" in findings[0].message

    def test_answering_the_taken_ask_twice_is_caught(self, findings_of):
        findings = findings_of(
            _stage(
                """
                cb, self.cb = self.cb, None
                cb(end, value)
                cb(end, value)
                """
            ),
            CHECK,
        )
        assert len(findings) == 1
        assert "second" in findings[0].message

    def test_take_then_answer_is_clean(self, findings_of):
        assert not findings_of(
            _stage(
                """
                cb, self.cb = self.cb, None
                cb(end, value)
                """
            ),
            CHECK,
        )

    def test_leaving_the_ask_parked_is_clean(self, findings_of):
        assert not findings_of(
            _stage(
                """
                if self.cb is None or value is None:
                    return
                self.read(None, self.answer)
                """
            ),
            CHECK,
        )

    def test_passing_the_taken_ask_on_is_a_handoff(self, findings_of):
        assert not findings_of(
            _stage(
                """
                cb, self.cb = self.cb, None
                self.read(end, cb)
                """
            ),
            CHECK,
        )
