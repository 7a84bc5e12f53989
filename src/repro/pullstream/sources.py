"""Standard pull-stream sources.

These mirror the helpers of the JavaScript ``pull-stream`` package that Pando
relies on (``pull.count``, ``pull.values``, ``pull.error``) plus a generator
adapter that is natural in Python.  All sources are *lazy*: a value is
computed only when a downstream consumer asks for it (paper Table 1, "Lazy").
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from .protocol import DONE, Callback, End, Source

__all__ = [
    "count",
    "values",
    "from_iterable",
    "error",
]


def count(n: int) -> Source:
    """Lazily produce the integers ``1..n`` (paper Figure 5's ``source``)."""
    state = {"i": 1}

    def read(end: End, cb: Callback) -> None:
        if end is not None:
            cb(end if isinstance(end, BaseException) else DONE, None)
            return
        if state["i"] <= n:
            value = state["i"]
            state["i"] += 1
            cb(None, value)
        else:
            cb(DONE, None)

    read.pull_role = "source"
    return read


def values(items: Sequence[Any]) -> Source:
    """Produce each element of *items* in order, then end."""
    return from_iterable(list(items))


def from_iterable(iterable: Iterable[Any]) -> Source:
    """Produce values by lazily iterating *iterable*.

    The iterable is only advanced when the downstream asks, so infinite
    generators are supported.
    """
    iterator: Iterator[Any] = iter(iterable)
    state = {"ended": None}

    def read(end: End, cb: Callback) -> None:
        if state["ended"] is not None:
            cb(state["ended"], None)
            return
        if end is not None:
            state["ended"] = end if isinstance(end, BaseException) else DONE
            cb(state["ended"], None)
            return
        try:
            value = next(iterator)
        except StopIteration:
            state["ended"] = DONE
            cb(DONE, None)
            return
        except Exception as exc:  # the generator itself failed
            state["ended"] = exc
            cb(exc, None)
            return
        cb(None, value)

    read.pull_role = "source"
    return read


def error(exc: BaseException) -> Source:
    """A source that immediately fails with *exc*."""

    def read(end: End, cb: Callback) -> None:
        cb(exc, None)

    read.pull_role = "source"
    return read
