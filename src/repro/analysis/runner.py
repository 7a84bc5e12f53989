"""Parse the target tree and drive the checkers.

:func:`analyze_paths` turns ``.py`` files (or directories of them) into
:class:`AnalyzedModule` objects — source, AST, a qualname index of every
function *including nested ones* (most pull-stream callbacks live in
closures like ``_make_source.read``), the class/base table the call graph
needs, and the file's suppression comments.

:func:`run_checkers` executes the selected checkers and applies the two
silencing layers in order: in-code suppressions first (they are visible at
the flagged line), then the committed baseline (grandfathered
fingerprints).  The result keeps the per-layer counts so the CLI can
report what was silenced, not just what fired.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .checkers import ALL_CHECKERS
from .findings import Finding, SuppressionIndex, parse_suppressions

__all__ = ["AnalyzedModule", "LintResult", "analyze_paths", "run_checkers"]


@dataclass
class AnalyzedModule:
    path: str  #: path as reported in findings (relative when given relative)
    source: str
    tree: ast.Module
    #: dotted qualname -> def node, nested functions included
    functions: Dict[str, ast.AST] = field(default_factory=dict)
    #: class name -> base-class names (last dotted component)
    classes: Dict[str, List[str]] = field(default_factory=dict)
    suppressions: SuppressionIndex = None


class _Indexer(ast.NodeVisitor):
    def __init__(self, module: AnalyzedModule) -> None:
        self.module = module
        self._stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Attribute):
                bases.append(base.attr)
            elif isinstance(base, ast.Name):
                bases.append(base.id)
        self.module.classes[node.name] = bases
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        qualname = ".".join(self._stack + [node.name])
        self.module.functions[qualname] = node
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def _iter_py_files(target: str) -> Iterable[str]:
    if os.path.isfile(target):
        yield target
        return
    for dirpath, dirnames, filenames in os.walk(target):
        dirnames[:] = sorted(
            name for name in dirnames if name not in ("__pycache__", ".git")
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def analyze_paths(targets: Sequence[str]) -> List[AnalyzedModule]:
    """Parse every ``.py`` file under *targets* into analyzed modules.

    A file that fails to parse raises ``SyntaxError`` — a tree that does
    not parse cannot be linted and should fail loudly, not silently pass.
    """
    modules: List[AnalyzedModule] = []
    for target in targets:
        for path in _iter_py_files(target):
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
            module = AnalyzedModule(
                path=path,
                source=source,
                tree=tree,
                suppressions=parse_suppressions(source),
            )
            _Indexer(module).visit(tree)
            modules.append(module)
    return modules


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)  #: surviving findings
    suppressed: int = 0  #: silenced by in-code comments
    baselined: int = 0  #: silenced by the committed baseline
    files: int = 0
    functions: int = 0


def run_checkers(
    modules: Sequence[AnalyzedModule],
    checks: Optional[Sequence[str]] = None,
    baseline: Optional[Set[str]] = None,
) -> LintResult:
    """Run the selected *checks* (default: all) and apply silencing layers."""
    result = LintResult(
        files=len(modules),
        functions=sum(len(module.functions) for module in modules),
    )
    by_path = {module.path: module for module in modules}
    selected = [
        checker
        for checker in ALL_CHECKERS
        if checks is None or checker.CHECKER_ID in checks
    ]
    raw: List[Finding] = []
    for checker in selected:
        raw.extend(checker.check(modules))
    raw.sort(key=lambda finding: (finding.path, finding.line, finding.checker))
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None and module.suppressions.covers(
            finding.line, finding.checker
        ):
            result.suppressed += 1
            continue
        if baseline and finding.fingerprint in baseline:
            result.baselined += 1
            continue
        result.findings.append(finding)
    return result
