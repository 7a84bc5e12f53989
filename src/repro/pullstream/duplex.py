"""Duplex pull-streams.

A duplex stream pairs a ``source`` (values flowing out) with a ``sink``
(values flowing in).  Pando's network channels and StreamLender sub-streams
are duplexes: the master writes inputs into a channel's sink and reads results
from its source (paper Figure 9, where the sub-stream source is piped through
the Limiter and the channel back into the sub-stream sink).
"""

from __future__ import annotations

from typing import Any

from .protocol import End, Sink, Source
from .pushable import Pushable
from .sinks import SinkResult, drain

__all__ = ["Duplex", "duplex_pair"]


class Duplex:
    """A ``(source, sink)`` pair."""

    pull_role = "duplex"

    def __init__(self, source: Source, sink: Sink) -> None:
        self.source = source
        self.sink = sink

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Duplex source={self.source!r} sink={self.sink!r}>"


def duplex_pair() -> "tuple[Duplex, Duplex]":
    """Create two connected in-memory duplex endpoints.

    Whatever is written into endpoint A's sink appears on endpoint B's source
    and vice versa — the loopback equivalent of a network channel, useful in
    tests and in the local (thread) runtime.
    """
    a_to_b = Pushable()
    b_to_a = Pushable()

    def make_sink(outgoing: Pushable) -> Sink:
        def sink(read: Source) -> SinkResult:
            def forward(value: Any) -> bool:
                outgoing.push(value)
                return True

            def finished(end: End) -> None:
                if isinstance(end, BaseException):
                    outgoing.error(end)
                else:
                    outgoing.end()

            return drain(op=forward, done=finished)(read)

        sink.pull_role = "sink"
        return sink

    endpoint_a = Duplex(source=b_to_a, sink=make_sink(a_to_b))
    endpoint_b = Duplex(source=a_to_b, sink=make_sink(b_to_a))
    return endpoint_a, endpoint_b
