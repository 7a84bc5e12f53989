"""Cross-process cancellation flag for bounded-tail frame abort.

The abort fan-out (``DistributedMap.drive``) drops the frames still
*queued* in the master, but a frame a pool child already holds keeps
computing its whole batch — the tail-latency follow-on the ROADMAP calls
out.  :class:`CancelFlag` closes that gap: one byte of
``multiprocessing.shared_memory`` the master raises when it force-cancels a
pool, and which the child-side task runners (:mod:`repro.pool.tasks`) poll
between chunks of a frame.  A running frame then stops at the next chunk
boundary by raising :class:`~repro.errors.FrameCancelled`, so no frame
completes more than one chunk past the ``abort_fanout`` trace event.

Like the shm ring, the flag is master-owned: the creating process unlinks
it, children only attach (cached per process, see
:func:`repro.net.shm_ring.attach_ring` for the resource-tracker rationale).
A child that cannot attach — the master already unlinked the flag — treats
the flag as raised: a vanished master means nobody wants the results.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

__all__ = ["CancelFlag", "flag_is_set"]


class CancelFlag:
    """One shared byte: 0 = keep working, 1 = stop at the next chunk."""

    def __init__(self) -> None:
        self._shm = shared_memory.SharedMemory(create=True, size=1)
        self._shm.buf[0] = 0
        self._owner_pid = os.getpid()
        self.closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    def set(self) -> None:
        """Raise the flag (idempotent)."""
        if not self.closed:
            self._shm.buf[0] = 1

    def is_set(self) -> bool:
        return bool(self.closed or self._shm.buf[0])

    def close(self) -> None:
        """Release the mapping; the creating process also unlinks the block."""
        if self.closed:
            return
        self.closed = True
        self._shm.close()
        if os.getpid() == self._owner_pid:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink race
                pass

    def __enter__(self) -> "CancelFlag":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self.closed else ("set" if self.is_set() else "clear")
        return f"<CancelFlag {self.name} {state}>"


#: Per-process cache of attached flag blocks, keyed by shared-memory name.
_ATTACHED: dict = {}


def flag_is_set(name: str) -> bool:
    """Child-side poll: is the flag *name* raised?

    Attachment is cached per process (one ``shm_open`` per flag per child).
    A missing block reads as *raised*: the master unlinks the flag when the
    pool shuts down, and any frame still asking afterwards should stop.
    """
    shm = _ATTACHED.get(name)
    if shm is None:
        try:
            # Cached for the life of the child process on purpose — the
            # master owns (and unlinks) the block; children only map it.
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return True  # pando-lint: ignore[resource-pairing]
        _ATTACHED[name] = shm
    return bool(shm.buf[0])
