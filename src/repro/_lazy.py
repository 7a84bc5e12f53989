"""Package exports that resolve on first use (PEP 562).

A process imports a package for one of its modules — a volunteer for the
endpoint and the codec, a pool child for its task runner — and the
package's ``__init__`` must not make it pay for the others.  Each package
names its exports by the submodule they live in (:func:`by_name`) and
resolves one in its module ``__getattr__`` (:func:`resolve`) the first time
it is asked for.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Dict, Sequence


def by_name(exports: Dict[str, Sequence[str]]) -> Dict[str, str]:
    """``{submodule: names}`` turned into ``{name: submodule}``."""
    return {name: module for module, names in exports.items() for name in names}


def resolve(package: str, where: Dict[str, str], name: str) -> Any:
    """Export *name* of *package*: imported from its submodule ``where[name]``
    (a name that is its submodule's own is the submodule) and cached in the
    package's namespace, so the next lookup never gets here."""
    module_name = where.get(name)
    if module_name is None:
        raise AttributeError(f"module {package!r} has no attribute {name!r}")
    module = importlib.import_module(f"{package}.{module_name}")
    value = module if module_name == name else getattr(module, name)
    setattr(sys.modules[package], name, value)
    return value
