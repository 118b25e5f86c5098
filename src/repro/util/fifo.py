"""The FIFO sequence pool behind PipeInfer's KV partitioning.

The paper allocates KV-cache sequence ranges with FIFO discipline
(Section IV-C).  :class:`SequencePool` wraps a :class:`collections.deque`
with the invariants the engine relies on (no double free, the canonical
sequence never pooled).
"""

from __future__ import annotations

from collections import deque
from typing import Deque


class SequencePool:
    """FIFO allocator for KV-cache sequence identifiers.

    Implements the free-sequence queue from Section IV-C: speculative runs
    draw a sequence id from the pool and return it once their partition has
    been swapped into the canonical sequence (or the run is discarded).
    Sequence id 0 is the *canonical* sequence and is never pooled.
    """

    CANONICAL = 0

    def __init__(self, n_sequences: int) -> None:
        """Create a pool managing ids ``1..n_sequences`` inclusive.

        Args:
            n_sequences: number of speculative sequence partitions.  The
                canonical sequence 0 is implicit and not part of the pool.
        """
        if n_sequences < 1:
            raise ValueError("need at least one speculative sequence partition")
        self._capacity = n_sequences
        self._free: Deque[int] = deque(range(1, n_sequences + 1))
        self._allocated: set[int] = set()

    @property
    def capacity(self) -> int:
        """Total number of speculative sequence ids managed."""
        return self._capacity

    @property
    def n_free(self) -> int:
        return len(self._free)

    @property
    def n_allocated(self) -> int:
        return len(self._allocated)

    def available(self) -> bool:
        """True when at least one sequence id can be allocated."""
        return bool(self._free)

    def allocate(self) -> int:
        """Pop the next free sequence id (FIFO order).

        Raises:
            RuntimeError: when the pool is exhausted; callers are expected to
                check :meth:`available` first (the engine throttles
                speculation when no partition is free).
        """
        if not self._free:
            raise RuntimeError("sequence pool exhausted")
        seq = self._free.popleft()
        self._allocated.add(seq)
        return seq

    def release(self, seq: int) -> None:
        """Return ``seq`` to the tail of the free queue.

        Raises:
            ValueError: if ``seq`` is the canonical sequence, out of range,
                or not currently allocated (double free).
        """
        if seq == self.CANONICAL:
            raise ValueError("canonical sequence 0 is never pooled")
        if seq not in self._allocated:
            raise ValueError(f"sequence {seq} is not allocated")
        self._allocated.remove(seq)
        self._free.append(seq)

    def allocated(self) -> frozenset[int]:
        """Snapshot of currently allocated sequence ids."""
        return frozenset(self._allocated)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SequencePool(capacity={self._capacity}, free={list(self._free)!r},"
            f" allocated={sorted(self._allocated)!r})"
        )
