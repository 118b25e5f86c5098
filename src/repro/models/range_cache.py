"""Interval-based KV cache metadata for the cluster simulation.

Performance-mode workers must execute the same cache-operation stream as
the functional engine (the multibuffering protocol is part of what is
being timed and validated), but holding a per-cell set for thousands of
positions per node would dominate simulation cost.  ``RangeKVCache``
stores, per sequence, a merged interval set of positions — cache ops
(`seq_cp`, `seq_rm`) become interval arithmetic with identical observable
semantics to :class:`~repro.models.kv_cache.KVCache` metadata, which a
differential property test asserts.

Costs, for a sequence holding *k* intervals (a handful in practice: the
canonical sequence is one interval, a partition one or two):

- ``add_tokens`` — O(1) per run of consecutive positions that extends or
  follows the last interval (the worker's common case: every run writes
  past everything already cached); otherwise O(log k) to find the span
  plus one slice assignment.
- ``seq_rm`` — O(log k) to find the span plus one slice assignment.
- ``seq_cp`` — O(log k + m) for the *m* source intervals it copies, each
  merged straight into the destination as an ``add``.
- the queries (``n_used``, ``seq_positions``) — O(k) per sequence they
  visit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Dict, Iterable, List, Tuple

_LO = itemgetter(0)
_HI = itemgetter(1)


class IntervalSet:
    """A sorted set of disjoint, non-touching half-open intervals [lo, hi)."""

    __slots__ = ("_ivals",)

    def __init__(self, ivals: Iterable[Tuple[int, int]] = ()) -> None:
        self._ivals: List[Tuple[int, int]] = []
        for lo, hi in ivals:
            self.add(lo, hi)

    def add(self, lo: int, hi: int) -> None:
        """Insert [lo, hi), merging with touching or overlapping intervals.

        O(1) when the insert starts at or after the last interval's start;
        otherwise a bisect and one slice assignment.
        """
        if hi <= lo:
            return
        iv = self._ivals
        if not iv or iv[-1][1] < lo:
            iv.append((lo, hi))
            return
        last_lo, last_hi = iv[-1]
        if last_lo <= lo:
            # Touches or overlaps only the last interval: the one before
            # it ends strictly below ``last_lo``.
            if hi > last_hi:
                iv[-1] = (last_lo, hi)
            return
        # Intervals i..j-1 touch or overlap [lo, hi): their ends reach lo
        # and their starts do not pass hi.
        i = bisect_left(iv, lo, key=_HI)
        j = bisect_right(iv, hi, key=_LO)
        if i < j:
            lo = min(lo, iv[i][0])
            hi = max(hi, iv[j - 1][1])
        iv[i:j] = [(lo, hi)]

    def _overlapping(self, lo: int, hi: int) -> Tuple[int, int]:
        """Index span ``i..j-1`` of the intervals overlapping [lo, hi)."""
        iv = self._ivals
        return bisect_right(iv, lo, key=_HI), bisect_left(iv, hi, key=_LO)

    def remove(self, lo: int, hi: int) -> int:
        """Delete [lo, hi) from the set; returns how many positions went."""
        if hi <= lo:
            return 0
        iv = self._ivals
        i, j = self._overlapping(lo, hi)
        if i >= j:
            return 0
        removed = sum(min(b, hi) - max(a, lo) for a, b in iv[i:j])
        first_lo, last_hi = iv[i][0], iv[j - 1][1]
        keep: List[Tuple[int, int]] = []
        if first_lo < lo:
            keep.append((first_lo, lo))
        if last_hi > hi:
            keep.append((hi, last_hi))
        iv[i:j] = keep
        return removed

    def _clipped(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """The intervals intersecting [lo, hi), cut to it, in order."""
        i, j = self._overlapping(lo, hi)
        out = self._ivals[i:j]
        if out:
            a, b = out[0]
            if a < lo:
                out[0] = (lo, b)
            a, b = out[-1]
            if b > hi:
                out[-1] = (a, hi)
        return out

    def clip(self, lo: int, hi: int) -> "IntervalSet":
        """The subset intersecting [lo, hi)."""
        out = IntervalSet()
        out._ivals = self._clipped(lo, hi)
        return out

    def __contains__(self, pos: int) -> bool:
        return any(a <= pos < b for a, b in self._ivals)

    def __len__(self) -> int:
        return sum(b - a for a, b in self._ivals)

    def max_value(self) -> int:
        """Largest contained integer, or -1 when empty."""
        return self._ivals[-1][1] - 1 if self._ivals else -1

    def positions(self) -> List[int]:
        return [p for a, b in self._ivals for p in range(a, b)]

    def intervals(self) -> List[Tuple[int, int]]:
        return list(self._ivals)

    def __bool__(self) -> bool:
        return bool(self._ivals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalSet({self._ivals!r})"


class RangeKVCache:
    """Sequence-indexed interval metadata with KVCache-compatible ops."""

    def __init__(self, n_cells: int = 1 << 30) -> None:
        self.n_cells = n_cells
        self._seqs: Dict[int, IntervalSet] = {}

    def _seq(self, seq: int) -> IntervalSet:
        found = self._seqs.get(seq)
        if found is None:
            found = IntervalSet()
            self._seqs[seq] = found
        return found

    def add_tokens(self, seq: int, positions: Iterable[int]) -> None:
        """Record freshly-written cells for ``seq`` at ``positions``.

        Takes all of one run's positions for the sequence at once: each
        stretch of consecutive ascending positions becomes one ``add``.
        """
        s = self._seq(seq)
        lo = hi = None
        for p in positions:
            if p == hi:
                hi += 1
                continue
            if lo is not None:
                s.add(lo, hi)
            lo, hi = p, p + 1
        if lo is not None:
            s.add(lo, hi)

    def seq_cp(self, seq_src: int, seq_dst: int, p0: int, p1: int) -> int:
        """Copy ``seq_src``'s entries in [p0, p1) into ``seq_dst``."""
        if seq_src == seq_dst:
            return 0
        dst = self._seq(seq_dst)
        n = 0
        for a, b in self._seq(seq_src)._clipped(p0, p1):
            dst.add(a, b)
            n += b - a
        return n

    def seq_rm(self, seq: int, p0: int, p1: int) -> int:
        """Drop ``seq``'s entries in [p0, p1)."""
        return self._seq(seq).remove(p0, p1)

    def seq_broadcast(self, seq_src: int, p0: int, p1: int, targets: Iterable[int]) -> int:
        n = 0
        for dst in targets:
            n += self.seq_cp(seq_src, dst, p0, p1)
        return n

    # -- queries (KVCache-compatible) ---------------------------------------

    @property
    def n_used(self) -> int:
        """Upper bound on occupied cells: total tracked (seq, pos) pairs.

        Interval metadata has no cell identity, so entries shared between
        sequences by ``seq_cp`` are counted once per sequence — an
        overestimate of :attr:`KVCache.n_used` that is safe for admission
        throttling (it can only admit later, never overflow).
        """
        return sum(len(ivals) for ivals in self._seqs.values())

    def seq_max_pos(self, seq: int) -> int:
        return self._seq(seq).max_value()

    def seq_positions(self, seq: int) -> List[int]:
        return self._seq(seq).positions()

    def has_entry(self, seq: int, pos: int) -> bool:
        return pos in self._seq(seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = {s: iv.intervals() for s, iv in self._seqs.items() if iv}
        return f"RangeKVCache({live!r})"
