"""Pure-Python KV-cache metadata reference.

This is the original per-cell ``List[Set[int]]`` implementation the
vectorized :class:`~repro.models.kv_cache.KVCache` replaced.  It is kept
(metadata plane only — no tensor store) as the executable specification
of the cache semantics: the differential property tests drive identical
op sequences through both implementations (and through
:class:`~repro.models.range_cache.RangeKVCache`) and assert identical
observable state, including allocation order, positional dedupe in
``seq_cp``, and free-on-empty.  It is O(n_cells) per operation by
construction.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.models.kv_cache import KVCacheError


class ReferenceKVCache:
    """Per-cell set metadata with linear-scan sequence ops (reference)."""

    def __init__(self, n_cells: int) -> None:
        if n_cells <= 0:
            raise ValueError("n_cells must be positive")
        self.n_cells = n_cells
        #: cell -> position (-1 when free).
        self.pos = np.full(n_cells, -1, dtype=np.int64)
        #: cell -> set of sequence ids.
        self.seqs: List[Set[int]] = [set() for _ in range(n_cells)]

    # -- allocation ------------------------------------------------------------

    @property
    def n_used(self) -> int:
        return int(np.count_nonzero(self.pos >= 0))

    @property
    def n_free(self) -> int:
        return self.n_cells - self.n_used

    def allocate(self, entries: Sequence[Tuple[int, Iterable[int]]]) -> List[int]:
        """Allocate one cell per (pos, seq_ids) entry; returns cell indices."""
        free = np.flatnonzero(self.pos < 0)
        if len(free) < len(entries):
            raise KVCacheError(
                f"cache overflow: need {len(entries)} cells, {len(free)} free"
            )
        cells = []
        for (p, seq_ids), cell in zip(entries, free):
            cell = int(cell)
            seq_ids = set(seq_ids)
            if not seq_ids:
                raise KVCacheError("a cell must belong to at least one sequence")
            if p < 0:
                raise KVCacheError(f"invalid position {p}")
            self.pos[cell] = p
            self.seqs[cell] = seq_ids
            cells.append(cell)
        return cells

    # -- sequence operations -----------------------------------------------------

    def seq_cp(self, seq_src: int, seq_dst: int, p0: int, p1: int) -> int:
        """Add ``seq_dst`` to cells of ``seq_src`` with p0 <= pos < p1."""
        self._check_range(p0, p1)
        if seq_src == seq_dst:
            return 0
        dst_positions = {
            int(self.pos[c])
            for c in np.flatnonzero(self.pos >= 0)
            if seq_dst in self.seqs[int(c)]
        }
        n = 0
        for cell in self._cells_of(seq_src, p0, p1):
            p = int(self.pos[cell])
            if p in dst_positions:
                continue
            self.seqs[cell].add(seq_dst)
            dst_positions.add(p)
            n += 1
        return n

    def seq_rm(self, seq: int, p0: int, p1: int) -> int:
        """Remove ``seq`` from cells with p0 <= pos < p1; free emptied cells."""
        self._check_range(p0, p1)
        n = 0
        for cell in self._cells_of(seq, p0, p1):
            self.seqs[cell].discard(seq)
            if not self.seqs[cell]:
                self.pos[cell] = -1
            n += 1
        return n

    def seq_broadcast(self, seq_src: int, p0: int, p1: int, targets: Iterable[int]) -> int:
        n = 0
        for dst in targets:
            n += self.seq_cp(seq_src, dst, p0, p1)
        return n

    # -- queries ---------------------------------------------------------------

    def seq_max_pos(self, seq: int) -> int:
        """Highest position stored for ``seq``, or -1 when empty."""
        best = -1
        for cell in range(self.n_cells):
            if self.pos[cell] >= 0 and seq in self.seqs[cell] and self.pos[cell] > best:
                best = int(self.pos[cell])
        return best

    def seq_cells(self, seq: int) -> List[int]:
        """Cells belonging to ``seq``, sorted by position."""
        cells = [c for c in range(self.n_cells) if self.pos[c] >= 0 and seq in self.seqs[c]]
        return sorted(cells, key=lambda c: int(self.pos[c]))

    def seq_positions(self, seq: int) -> List[int]:
        """Sorted positions stored for ``seq``."""
        return [int(self.pos[c]) for c in self.seq_cells(seq)]

    def visible_cells(self, seq: int, pos: int, inclusive: bool = True) -> np.ndarray:
        """Cell indices visible to a query at (seq, pos)."""
        mask = self.pos >= 0
        if inclusive:
            idx = np.flatnonzero(mask & (self.pos <= pos))
        else:
            idx = np.flatnonzero(mask & (self.pos < pos))
        return np.array([c for c in idx if seq in self.seqs[c]], dtype=np.int64)

    def has_entry(self, seq: int, pos: int) -> bool:
        """True when ``seq`` already holds a cell at position ``pos``."""
        idx = np.flatnonzero(self.pos == pos)
        return any(seq in self.seqs[c] for c in idx)

    # -- internals ---------------------------------------------------------------

    def _cells_of(self, seq: int, p0: int, p1: int) -> List[int]:
        out = []
        for cell in np.flatnonzero((self.pos >= p0) & (self.pos < p1)):
            if seq in self.seqs[int(cell)]:
                out.append(int(cell))
        return out

    @staticmethod
    def _check_range(p0: int, p1: int) -> None:
        if p0 < 0 or p1 < p0:
            raise KVCacheError(f"invalid position range [{p0}, {p1})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReferenceKVCache(cells={self.n_cells}, used={self.n_used})"
