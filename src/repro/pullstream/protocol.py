"""Core definitions of the pull-stream callback protocol.

The pull-stream design pattern (Dominic Tarr, used throughout Pando) builds
streaming pipelines out of three kinds of modules:

* a **source** is a callable ``read(end, cb)``;
* a **through** (transformer) is a callable that takes a ``read`` and returns
  a new ``read``;
* a **sink** is a callable that takes a ``read`` and drives it by repeatedly
  asking for values.

The ``read(end, cb)`` contract (paper Figure 5/6):

* ``end is None`` — the caller *asks* for the next value;
* ``end is DONE`` — the caller *aborts* the stream normally;
* ``end`` is an ``Exception`` — the caller aborts because of an error.

The answer arrives through ``cb(end, value)``:

* ``end is None`` — ``value`` is the next value of the stream;
* ``end is DONE`` — the stream terminated normally, ``value`` is ignored;
* ``end`` is an ``Exception`` — the stream failed.

Every request must receive exactly one answer, and a caller must not issue a
new ask before the previous answer arrived (but it may issue an abort at any
time).  :class:`ProtocolChecker` wraps a source and enforces these rules; the
StreamLender random-testing application of the paper (section 4.1) uses it to
hunt for violations.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from ..errors import ProtocolError

__all__ = [
    "DONE",
    "EndMarker",
    "End",
    "Callback",
    "Source",
    "Through",
    "Sink",
    "is_done",
    "is_error",
    "is_end",
    "ignore_answer",
    "check_protocol",
    "ProtocolChecker",
]


class EndMarker:
    """Singleton sentinel signalling a normal end (or abort) of a stream.

    The JavaScript pattern uses the boolean ``true``; a dedicated sentinel is
    clearer in Python because stream values themselves may be booleans.
    """

    _instance: Optional["EndMarker"] = None

    def __new__(cls) -> "EndMarker":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "DONE"

    def __bool__(self) -> bool:
        # The sentinel is truthy so ``if end:`` reads like the JS idiom.
        return True


#: The canonical "stream terminated normally" marker.
DONE = EndMarker()

#: Type of the ``end`` argument: ``None`` (no end), ``DONE`` or an error.
End = Union[None, EndMarker, BaseException]

#: A pull-stream answer callback.
Callback = Callable[[End, Any], None]

#: A pull-stream source: ``read(end, cb)``.
Source = Callable[[End, Callback], None]

#: A pull-stream through: ``through(read) -> read``.
Through = Callable[[Source], Source]

#: A pull-stream sink: consumes a source.
Sink = Callable[[Source], Any]


def is_done(end: End) -> bool:
    """Return True when *end* signals a normal termination."""
    return isinstance(end, EndMarker)


def is_error(end: End) -> bool:
    """Return True when *end* signals an error termination."""
    return isinstance(end, BaseException)


def is_end(end: End) -> bool:
    """Return True when *end* signals any termination (normal or error)."""
    return end is not None


def ignore_answer(_end: End, _value: Any) -> None:
    """The answer callback of an abort nobody waits on."""


class ProtocolChecker:
    """Wrap a source and verify the pull-stream protocol invariants.

    The checker raises :class:`~repro.errors.ProtocolError` when the wrapped
    source (or its caller) violates one of the rules:

    1. no concurrent asks: a new ask may only be issued once the previous
       answer has been delivered;
    2. exactly one answer per request;
    3. no values after termination: once the source answered ``DONE`` or an
       error, every subsequent answer must also be a termination.

    It also records a trace of ``(request, answer)`` events which the
    random-testing application inspects.
    """

    pull_role = "source"

    def __init__(self, source: Source, name: str = "source") -> None:
        self._source = source
        self._name = name
        self._waiting = False
        self._ended: End = None
        self.trace: list = []

    def __call__(self, end: End, cb: Callback) -> None:
        if end is None and self._waiting:
            raise ProtocolError(
                f"{self._name}: ask issued while a previous ask is still pending"
            )
        if end is None:
            self._waiting = True
        self.trace.append(("request", end))

        answered = False

        def checked(answer_end: End, value: Any) -> None:
            nonlocal answered
            if answered:
                raise ProtocolError(f"{self._name}: request answered twice")
            answered = True
            if end is None:
                self._waiting = False
            if self._ended is not None and answer_end is None:
                raise ProtocolError(
                    f"{self._name}: produced a value after termination"
                )
            if answer_end is not None:
                self._ended = answer_end
            self.trace.append(("answer", answer_end, value))
            cb(answer_end, value)

        self._source(end, checked)


def check_protocol(source: Source, name: str = "source") -> "ProtocolChecker":
    """Convenience constructor for :class:`ProtocolChecker`."""
    return ProtocolChecker(source, name=name)
