"""Command-line interface: the ``pando`` tool and its pipeline companions.

The names resolve on first use (PEP 562), so ``python -m
repro.cli.pando_cli`` runs a module this package has not imported already.
"""

from typing import Any

from .. import _lazy

_EXPORTS = _lazy.by_name(
    {
        "pando_cli": ("build_parser", "main", "run_pipeline"),
        "tools": ("generate_angles_main", "gif_encoder_main"),
    }
)

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)
