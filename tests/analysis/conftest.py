"""Fixtures for the pando-lint test suite.

The core helper turns a source string into analyzed modules and runs a
single checker (or the whole battery) over it, so each test can seed a
violation inline and assert the checker catches it — or feed it a clean
exemplar and assert zero false positives.

``PANDO_THREAD_ASSERTS`` arms ``@loop_only`` once, when ``repro`` is
imported.  A test marked ``@pytest.mark.thread_asserts(armed)`` runs here
when this process is in that state; otherwise the hook below runs it (with
every other test that wants the same state) in one child pytest started
with the variable set that way, and reports the child's outcome.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

import repro
from repro.analysis.annotations import thread_asserts_enabled
from repro.analysis.findings import Finding
from repro.analysis.runner import LintResult, analyze_paths, run_checkers

#: per session, armed -> (outcome by node id, the child's output)
_CHILD_RUNS = pytest.StashKey[Dict[bool, Tuple[Dict[str, str], str]]]()


def _run_in_child(session: pytest.Session, armed: bool) -> Tuple[Dict[str, str], str]:
    """Run every selected test that wants *armed* in one child pytest."""
    runs = session.stash.setdefault(_CHILD_RUNS, {})
    if armed not in runs:
        nodeids = [
            item.nodeid
            for item in session.items
            if (marker := item.get_closest_marker("thread_asserts")) is not None
            and marker.args[0] == armed
        ]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PANDO_THREAD_ASSERTS="1" if armed else "0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *nodeids],
            cwd=session.config.rootpath,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        outcomes = {}
        for line in child.stdout.splitlines():
            word, _, rest = line.partition(" ")
            if word in ("PASSED", "FAILED", "ERROR"):
                outcomes[rest.split(" - ")[0]] = word
        runs[armed] = (outcomes, child.stdout + child.stderr)
    return runs[armed]


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem: pytest.Function) -> Optional[bool]:
    marker = pyfuncitem.get_closest_marker("thread_asserts")
    if marker is None or marker.args[0] == thread_asserts_enabled():
        return None  # run it here
    armed = marker.args[0]
    outcomes, output = _run_in_child(pyfuncitem.session, armed)
    if outcomes.get(pyfuncitem.nodeid) != "PASSED":
        pytest.fail(
            f"{outcomes.get(pyfuncitem.nodeid, 'not run')} in a child with "
            f"PANDO_THREAD_ASSERTS={int(armed)}:\n{output}",
            pytrace=False,
        )
    return True


@pytest.fixture
def lint(tmp_path):
    """``lint(source, checks=[...]) -> LintResult`` over a source snippet."""

    def _lint(
        source: str,
        checks: Optional[Sequence[str]] = None,
        filename: str = "fixture.py",
        baseline=None,
    ) -> LintResult:
        path = tmp_path / filename
        path.write_text(textwrap.dedent(source))
        modules = analyze_paths([str(path)])
        return run_checkers(modules, checks=checks, baseline=baseline)

    return _lint


@pytest.fixture
def findings_of(lint):
    """``findings_of(source, checker) -> List[Finding]`` for one checker."""

    def _findings(source: str, checker: str) -> List[Finding]:
        return lint(source, checks=[checker]).findings

    return _findings
