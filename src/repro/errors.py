"""Exception hierarchy shared across the Pando reproduction.

The original Pando implementation signals failures through the pull-stream
callback protocol (an ``err`` value flowing upstream or downstream).  In this
Python port, those error values are instances of the exception classes below
so that they can also be raised at API boundaries (CLI, master, runtime).
"""

from __future__ import annotations


class PandoError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ProtocolError(PandoError):
    """A pull-stream module violated the ask/answer callback protocol.

    Typical violations: answering the same request twice, asking again before
    the previous answer arrived, or producing a value after ``done``.
    """


class StreamAborted(PandoError):
    """A downstream consumer aborted the stream before it finished."""


class ThreadOwnershipError(PandoError):
    """A ``@loop_only`` function was entered from a foreign thread.

    Raised only when the runtime thread asserts of
    :mod:`repro.analysis.annotations` are enabled (debug mode); the static
    ``pando-lint`` pass catches the same class of violation without running
    the code.
    """


class WorkerCrashed(PandoError):
    """A volunteer device crashed (crash-stop failure) while holding values."""

    def __init__(self, worker_id: str, message: str = "") -> None:
        super().__init__(message or f"worker {worker_id!r} crashed")
        self.worker_id = worker_id


class FrameCancelled(PandoError):
    """A pool task stopped mid-frame because the cancel flag was raised.

    Raised child-side between chunks (see :mod:`repro.pool.cancel`); the
    master only ever observes it on frames whose results can no longer be
    delivered (the stream aborted), so it is bookkeeping, not failure.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            f"frame cancelled after {completed}/{total} values"
        )
        self.completed = completed
        self.total = total

    def __reduce__(self):
        # Crosses a pool child's pipe.  The default reduction calls
        # ``cls(*args)`` with the message alone, which fails to unpickle.
        return (FrameCancelled, (self.completed, self.total))


class ConnectionClosed(PandoError):
    """A simulated WebSocket/WebRTC channel was closed or lost its heartbeat."""


class SignallingError(PandoError):
    """WebRTC signalling through the public server failed."""


class NATTraversalError(ConnectionClosed):
    """Direct WebRTC connectivity could not be established through NAT."""


class BundlingError(PandoError):
    """The processing function or its dependencies could not be bundled."""


class TaskError(PandoError):
    """The user-supplied processing function raised for a given input value."""

    def __init__(self, value: object, cause: BaseException) -> None:
        super().__init__(f"processing failed for input {value!r}: {cause!r}")
        self.value = value
        self.cause = cause


class DeploymentError(PandoError):
    """A simulated deployment scenario could not be constructed or run."""


class SimulationError(PandoError):
    """The discrete-event simulator reached an inconsistent state."""


class ExternalTransferError(PandoError):
    """A failure-prone external data-distribution transfer did not complete.

    Used by the *stubborn* processing applications (paper section 4.3) where
    results travel through DAT/WebTorrent-like channels that may fail even
    after the worker reported success.
    """
