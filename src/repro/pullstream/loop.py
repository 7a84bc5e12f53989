"""The pull-stream core's one re-entrancy trampoline.

Asking a source for the next value as soon as the previous answer arrives
recurses when the answers are synchronous: ask -> answer -> ask -> ... grows
the stack by one frame chain per value.  :class:`Loop` is pull-stream's
``looper``: ``run()`` calls ``step()``, and a ``run()`` made while a step is
still on the stack — an answer that arrived synchronously asking again —
only sets ``again``; the outermost ``run()`` turns it into the next
iteration of its ``while`` loop.  An answer that arrives later finds the
loop idle and starts it afresh.  No per-iteration state: one flag pair per
stream.

The one drain loop (:func:`~repro.pullstream.sinks.eager_pump`: every sink,
the channel sinks, a lender sub-stream's result side) is a subclass whose
``step`` is a method; the lender's upstream pump, ``batching`` and
``split`` run on a ``Loop(step)``.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["Loop"]


class Loop:
    """Call ``step()`` once per ``run()``, iterating instead of recursing.

    ``Loop(step)`` calls the given function; a subclass built with
    ``Loop()`` defines ``step`` as a method instead, so a stage that is its
    own loop neither stores a bound method of itself nor forms a cycle.

    An exception raised by a step propagates out of the outermost ``run()``
    and leaves the loop idle, so a failing continuation is neither swallowed
    nor able to wedge the stream.
    """

    __slots__ = ("step", "running", "again")

    def __init__(self, step: Optional[Callable[[], None]] = None) -> None:
        if step is not None:
            self.step = step
        self.running = False
        self.again = False

    def run(self) -> None:
        if self.running:
            self.again = True
            return
        self.running = True
        self.again = True
        try:
            while self.again:
                self.again = False
                self.step()
        finally:
            self.running = False
