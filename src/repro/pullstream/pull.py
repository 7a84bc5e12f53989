"""The ``pull()`` combinator that composes pull-stream modules.

Mirrors the behaviour of the JavaScript ``pull-stream`` package used by Pando
(paper Figure 5, line 20): ``pull(source, t1, t2, ..., sink)`` connects a
source through zero or more transformers into a sink.  When the final module
is a sink the sink's return value is returned; otherwise the composition is
returned as a new source (if the first module is a source) or as a new
through (if it is not).
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["pull"]


def _is_source_like(module: Any) -> bool:
    """Heuristically decide whether *module* is a source.

    Sources are callables of two arguments ``(end, cb)``.  Throughs and sinks
    are callables of one argument ``(read)``.  We distinguish them by their
    declared arity, falling back to an explicit ``pull_role`` attribute when
    a module wants to be unambiguous (used by duplex adapters).
    """
    role = getattr(module, "pull_role", None)
    if role is not None:
        return role == "source"
    try:
        from inspect import signature

        params = [
            p
            for p in signature(module).parameters.values()
            if p.kind
            in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            and p.default is p.empty
        ]
        return len(params) >= 2
    except (TypeError, ValueError):  # builtins / partials without signature
        return False


def pull(*modules: Any) -> Any:
    """Compose pull-stream *modules* left to right.

    ``pull(source, through..., sink)`` feeds the source through the
    transformers into the sink and returns whatever the sink returns.

    ``pull(source, through...)`` returns a new composed source.

    ``pull(through, ..., through)`` returns a new composed through, which can
    itself be placed in a later ``pull`` call.

    Modules that expose a ``source``/``sink`` attribute pair (duplex streams,
    StreamLender sub-streams) are not handled here; connect their halves
    explicitly as in the paper's Figure 9.
    """
    if not modules:
        raise TypeError("pull() requires at least one module")

    if not _is_source_like(modules[0]):
        return compose(*modules)
    result: Any = modules[0]
    for module in modules[1:]:
        result = module(result)
    return result


def compose(*throughs: Callable) -> Callable:
    """Compose several through modules into a single through."""
    def composed(read):
        s = read
        for through in throughs:
            s = through(s)
        return s

    composed.pull_role = "through"
    return composed
