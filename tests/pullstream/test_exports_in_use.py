"""Every name ``repro.pullstream`` exports is composed by the program.

The package mirrors the few pull-stream modules the master composes, not a
general library.  This test parses ``src/`` (minus ``pullstream/`` itself),
``examples/``, ``benchmarks/``, ``perf/`` and ``scripts/`` and fails, naming
each one, when an exported name is imported or used as ``<alias>.name`` by
none of them: a combinator only its own tests call is surplus.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Set

import repro.pullstream

ROOT = Path(__file__).resolve().parents[2]
PROGRAM_DIRS = ("src", "examples", "benchmarks", "perf", "scripts")

#: exported although nothing outside tests/ names them, and why they stay
KEPT = {
    "EndMarker": "the type of DONE",
    "Sink": "the protocol's type of a sink, next to Source",
    "Through": "the protocol's type of a through, next to Source",
    "compose": "what pull() returns for a pipeline without a source",
    "take": "drives the early-abort tests of core/, pool/ and net/",
    "error": "drives the upstream-error tests of core/, pool/ and net/",
}


def _is_pullstream(module: str, level: int) -> bool:
    """``from <module> import ...`` reads the pullstream package."""
    if level:  # relative, inside src/repro
        return module == "pullstream" or module.startswith("pullstream.")
    return module == "repro.pullstream" or module.startswith("repro.pullstream.")


def _program_files() -> Iterator[Path]:
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if "pullstream" not in path.relative_to(ROOT).parts:
                yield path


def _names_used(tree: ast.AST, exported: Set[str]) -> Set[str]:
    used: Set[str] = set()
    aliases: Set[str] = set()  # local names bound to the package or a submodule
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            from_package = _is_pullstream(module, node.level)
            # repro's own lazy exports resolve in repro.pullstream too
            from_repro = node.level == 0 and module == "repro"
            for alias in node.names:
                if from_package or from_repro:
                    used.add(alias.name)
                if from_package or alias.name == "pullstream":
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_pullstream(alias.name, 0) and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            used.add(node.attr)
    return used & exported


def test_every_exported_name_is_used_outside_the_tests():
    exported = set(repro.pullstream.__all__)
    assert sorted(set(KEPT) - exported) == []  # no stale entry
    used: Set[str] = set()
    for path in _program_files():
        used |= _names_used(ast.parse(path.read_text(), str(path)), exported)
    unused = sorted(exported - used - set(KEPT))
    assert unused == [], f"exported by repro.pullstream, used by no program file: {unused}"
