"""Flat, structure-of-arrays channel state shared by every engine kernel.

The engine's mutable channel state -- who holds each channel, who is
queued behind it -- lives here as *parallel flat lists* rather than
per-channel container objects:

* ``holders[ch]`` is the :class:`~repro.sim.worm.Worm` currently holding
  channel ``ch`` (or ``None``),
* ``fifos[ch]`` / ``fifo_heads[ch]`` form the channel's waiter queue: a
  plain list plus an integer head cursor.  A push is ``list.append``; a
  pop reads the cursor slot and advances it, shedding the consumed
  prefix when the queue drains (or when the prefix passes a small
  threshold), so the list is *empty exactly when the queue is logically
  empty* -- the hot-path emptiness test stays a one-opcode truthiness
  check, identical to the deque representation this replaces.

The layout is deliberately primitive: three lists of scalars/objects,
no container methods on the hot path.  The pure-Python kernel indexes
them directly, and the compiled stepper (:mod:`repro.sim._cstep`, when
built) walks the very same lists through the C API -- ``PyList_GET_ITEM``
plus a cursor increment -- so there is exactly one store of channel
truth no matter which kernel (or which mix, after a mid-run bounce) is
executing.  Nothing is mirrored, so nothing can ever need
re-synchronising.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.worm import Worm

__all__ = ["ChannelState"]

#: consumed-prefix length at which a waiter queue is compacted even
#: though it has not drained (keeps long-lived contended queues bounded)
_FIFO_COMPACT = 32


class ChannelState:
    """Holder + waiter-queue state for a dense channel index space.

    Invariants (relied on by the Python kernel and the C stepper --
    keep both in sync with any change here):

    * ``fifos[ch]`` is truthy iff channel ``ch`` has at least one queued
      waiter (popping the last waiter clears the list eagerly);
    * the live waiters of ``ch`` are ``fifos[ch][fifo_heads[ch]:]`` in
      FIFO order; entries below the head cursor are already granted and
      logically gone (bounded by ``_FIFO_COMPACT``);
    * a worm appears at most once in any queue's live region.
    """

    __slots__ = ("holders", "fifos", "fifo_heads")

    def __init__(self, num_channels: int) -> None:
        self.holders: list[Optional["Worm"]] = [None] * num_channels
        self.fifos: list[list["Worm"]] = [[] for _ in range(num_channels)]
        self.fifo_heads: list[int] = [0] * num_channels

    # ------------------------------------------------------------------ #
    def fifo_push(self, ch: int, worm: "Worm") -> None:
        """Queue ``worm`` behind channel ``ch`` (FIFO order)."""
        self.fifos[ch].append(worm)

    def fifo_pop(self, ch: int) -> "Worm":
        """Dequeue and return the channel's first live waiter.

        Sheds the consumed prefix when the queue drains -- so emptiness
        stays a plain truthiness test -- or when the prefix reaches the
        compaction threshold."""
        q = self.fifos[ch]
        heads = self.fifo_heads
        h = heads[ch]
        worm = q[h]
        h += 1
        if h == len(q):
            q.clear()
            heads[ch] = 0
        elif h >= _FIFO_COMPACT:
            del q[:h]
            heads[ch] = 0
        else:
            heads[ch] = h
        return worm

    def fifo_remove(self, ch: int, worm: "Worm") -> bool:
        """Remove ``worm`` from the channel's *live* waiters if queued
        (deadlock recovery).  Searching from the head cursor is what
        keeps already-granted prefix entries from shadowing the lookup.
        Returns True if the worm was found and removed."""
        q = self.fifos[ch]
        for i in range(self.fifo_heads[ch], len(q)):
            if q[i] is worm:
                del q[i]
                if self.fifo_heads[ch] == len(q):
                    q.clear()
                    self.fifo_heads[ch] = 0
                return True
        return False
