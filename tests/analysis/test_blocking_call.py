"""blocking-call-on-loop: no unbounded waits in loop-reachable code."""

from __future__ import annotations

CHECK = "blocking-call-on-loop"


class TestSeededViolations:
    def test_untimed_future_result_in_dispatch_is_caught(self, findings_of):
        findings = findings_of(
            """
            class EventLoopScheduler:
                def dispatch_round(self):
                    return self.future.result()  # bug: unbounded wait
            """,
            CHECK,
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.checker == CHECK
        assert "Future.result()" in finding.message
        assert "scheduler dispatch machinery" in finding.detail

    def test_time_sleep_reachable_from_dispatch_is_caught(self, findings_of):
        findings = findings_of(
            """
            import time

            def backoff():
                time.sleep(0.1)

            class EventLoopScheduler:
                def dispatch_round(self):
                    backoff()
            """,
            CHECK,
        )
        assert len(findings) == 1
        assert "time.sleep()" in findings[0].message
        # the report names the path from the root into the blocking call
        assert "dispatch_round" in findings[0].detail

    def test_blocking_call_inside_loop_only_is_caught(self, findings_of):
        findings = findings_of(
            """
            from repro.analysis.annotations import loop_only

            @loop_only
            def poll(self):
                return self.result_queue.get()  # bug: parks the loop
            """,
            CHECK,
        )
        assert len(findings) == 1
        assert "queue.get()" in findings[0].message

    def test_event_source_hook_is_a_root(self, findings_of):
        findings = findings_of(
            """
            class EventSource:
                pass

            class PoolSource(EventSource):
                def dispatch(self):
                    self.done_event.wait()  # bug: unbounded wait
            """,
            CHECK,
        )
        assert len(findings) == 1
        assert "EventSource hook" in findings[0].detail

    def test_a_second_select_on_the_loop_is_caught_even_when_bounded(self, findings_of):
        findings = findings_of(
            """
            import select

            class EventSource:
                pass

            class PipeSource(EventSource):
                def dispatch(self):
                    select.select(self.pipes, (), (), 0.5)  # bug: a second wait
            """,
            CHECK,
        )
        assert len(findings) == 1
        assert "select()" in findings[0].message


class TestCleanExemplars:
    def test_the_loops_own_poll_is_the_sanctioned_wait(self, findings_of):
        assert not findings_of(
            """
            class Loop:
                def run_once(self, timeout):
                    return self._poll(timeout)

                def _poll(self, wait):
                    return self._selector.select(wait)
            """,
            CHECK,
        )

    def test_bounded_result_is_a_deliberate_tradeoff(self, findings_of):
        assert not findings_of(
            """
            class EventLoopScheduler:
                def dispatch_round(self):
                    return self.future.result(timeout=1.0)
            """,
            CHECK,
        )

    def test_nonblocking_queue_get_is_clean(self, findings_of):
        assert not findings_of(
            """
            from repro.analysis.annotations import loop_only

            @loop_only
            def poll(self):
                return self.result_queue.get(block=False)
            """,
            CHECK,
        )

    def test_blocking_call_off_the_loop_is_out_of_scope(self, findings_of):
        # A worker helper nobody reaches from loop machinery may block.
        assert not findings_of(
            """
            import time

            def child_entry_point(task):
                time.sleep(task.duration)
            """,
            CHECK,
        )

    def test_real_tree_has_no_findings(self):
        from pathlib import Path

        from repro.analysis.runner import analyze_paths, run_checkers

        tree = Path(__file__).resolve().parents[2] / "src" / "repro"
        modules = analyze_paths([str(tree)])
        result = run_checkers(modules, checks=[CHECK])
        assert result.findings == []
