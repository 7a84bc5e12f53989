"""No module of the package runs on asyncio.

The master waits in one place, its own loop (``repro.sched.loop``), and a
volunteer process runs a loop of the same kind beside its tab threads.  This
walks the AST of every module of the package, so an ``import asyncio`` (or
``from asyncio ...``) anywhere fails here, whether or not the import is ever
executed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
ALLOWED: set = set()


def _imports_asyncio(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "asyncio" or name.startswith("asyncio.") for name in names):
            return True
    return False


def test_no_module_imports_asyncio():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 50  # the walk really sees the package
    offenders = [
        str(path.relative_to(PACKAGE))
        for path in modules
        if path not in ALLOWED and _imports_asyncio(path)
    ]
    assert offenders == []


def test_the_walk_catches_every_import_form(tmp_path):
    for source in ("import asyncio", "import os, asyncio.events", "from asyncio import Queue"):
        module = tmp_path / "module.py"
        module.write_text(f"def f():\n    {source}\n")
        assert _imports_asyncio(module), source
    module.write_text("from .asyncio_free import x\nimport selectors\n")
    assert not _imports_asyncio(module)
