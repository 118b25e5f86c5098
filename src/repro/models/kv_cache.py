"""llama.cpp-style KV cache with vectorized per-cell sequence metadata.

Each cache cell stores a token position and the *set of sequence ids* the
entry belongs to (paper Section II-B).  Sequence-level operations
(`seq_cp`, `seq_rm`) manipulate only this metadata: copying a range of
cells from one sequence to another adds the destination id to the cells'
sets — the actual K/V tensors are shared, which is why the paper's
"buffer swap" between a speculative partition and the canonical sequence
is near-free.

The metadata plane is stored as NumPy state rather than Python sets:

- ``pos``: ``(n_cells,)`` int64 positions, -1 when free;
- ``_member``: ``(n_cells, n_seq_cols)`` boolean membership matrix, with
  columns grown on demand as higher sequence ids appear;
- ``_free``: a min-heap of free cell indices, so allocation hands out the
  lowest-indexed free cells (the same order a linear scan would) in
  O(log n) instead of scanning every cell.

Sequence ops and queries are masked-array expressions over this state —
O(1) or one vectorized pass — with semantics identical to the
pure-Python per-cell-set reference the differential property tests keep
(``tests/oracles/kv_cache.py``): positional dedupe in ``seq_cp``,
free-on-empty, strict/inclusive visibility.

The cache is used at two fidelity levels:

- metadata-only (``n_layers=0``): the cluster simulation tracks cell
  occupancy and sequence structure without tensors;
- tensor-backed: the functional transformer stores real K/V arrays per
  layer and builds attention masks from the metadata.

A cell is free when its sequence set is empty.  Attention visibility for a
query (seq, pos) is: cell carries ``seq`` and ``cell.pos < pos`` (strictly
earlier positions; the query token's own cell is written during the same
forward but tokens do not attend to themselves ahead of their position).
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

#: Initial sequence-id capacity of the membership matrix.
_INITIAL_SEQ_COLS = 8


class KVCacheError(RuntimeError):
    """Raised on cache misuse: overflow, overwriting live cells, bad ranges."""


class _SeqsView:
    """Read-only per-cell sequence sets derived from the membership matrix.

    Kept for API compatibility (``cache.seqs[cell] == {0, 2}``); mutation
    goes through the sequence ops, never through this view.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: "KVCache") -> None:
        self._cache = cache

    def __getitem__(self, cell: int) -> Set[int]:
        return {int(s) for s in np.flatnonzero(self._cache._member[cell])}

    def __len__(self) -> int:
        return self._cache.n_cells


class KVCache:
    """Fixed-capacity KV cache with vectorized sequence metadata.

    Args:
        n_cells: total cell capacity.
        n_layers: number of layers storing tensors (0 = metadata only).
        kv_dim: width of one K (or V) vector when tensor-backed.
        dtype: tensor dtype for the K/V store.
    """

    def __init__(
        self,
        n_cells: int,
        n_layers: int = 0,
        kv_dim: int = 0,
        dtype: np.dtype = np.float32,
    ) -> None:
        if n_cells <= 0:
            raise ValueError("n_cells must be positive")
        self.n_cells = n_cells
        self.n_layers = n_layers
        self.kv_dim = kv_dim
        #: cell -> position (-1 when free).
        self.pos = np.full(n_cells, -1, dtype=np.int64)
        self._member = np.zeros((n_cells, _INITIAL_SEQ_COLS), dtype=bool)
        #: Min-heap of free cells; ``range`` is already heap-ordered.
        self._free: List[int] = list(range(n_cells))
        #: One past the highest cell index ever allocated.  Allocation is
        #: lowest-index-first, so cells at or beyond the high-water mark
        #: have never held an entry — visibility queries can ignore them.
        self._high_water = 0
        if n_layers > 0:
            if kv_dim <= 0:
                raise ValueError("tensor-backed cache needs kv_dim > 0")
            self.k = np.zeros((n_layers, n_cells, kv_dim), dtype=dtype)
            self.v = np.zeros((n_layers, n_cells, kv_dim), dtype=dtype)
        else:
            self.k = None
            self.v = None

    # -- metadata views ----------------------------------------------------------

    @property
    def seqs(self) -> _SeqsView:
        """cell -> set of sequence ids (read-only compatibility view)."""
        return _SeqsView(self)

    def _ensure_seq(self, seq: int) -> None:
        """Grow the membership matrix to cover column ``seq``."""
        if seq < 0:
            raise KVCacheError(f"invalid sequence id {seq}")
        cols = self._member.shape[1]
        if seq < cols:
            return
        while cols <= seq:
            cols *= 2
        grown = np.zeros((self.n_cells, cols), dtype=bool)
        grown[:, : self._member.shape[1]] = self._member
        self._member = grown

    def _col(self, seq: int) -> bool:
        """True when ``seq`` has a column (i.e. may have members)."""
        return 0 <= seq < self._member.shape[1]

    def _release(self, cells: np.ndarray) -> None:
        """Mark ``cells`` free and return them to the allocator.

        Bulk frees (request teardown) re-heapify once instead of pushing
        cell by cell; allocation order is unchanged either way (the heap
        always pops the lowest free index).
        """
        self.pos[cells] = -1
        if len(cells) > 8:
            self._free.extend(int(c) for c in cells)
            heapq.heapify(self._free)
        else:
            for c in cells:
                heapq.heappush(self._free, int(c))

    # -- allocation ------------------------------------------------------------

    @property
    def n_used(self) -> int:
        return self.n_cells - len(self._free)

    @property
    def high_water(self) -> int:
        """One past the highest cell index ever allocated."""
        return self._high_water

    @property
    def n_free(self) -> int:
        return len(self._free)

    def allocate(self, entries: Sequence[Tuple[int, Iterable[int]]]) -> List[int]:
        """Allocate one cell per (pos, seq_ids) entry; returns cell indices.

        All layers of a decode batch share these indices (each layer writes
        its own K/V row at the same cell), mirroring llama.cpp's slot
        allocation per ``llama_decode``.  Cells are handed out lowest
        index first, matching the linear-scan order of the reference
        implementation.

        Raises:
            KVCacheError: when the cache is full.
        """
        if len(self._free) < len(entries):
            raise KVCacheError(
                f"cache overflow: need {len(entries)} cells, "
                f"{len(self._free)} free"
            )
        cells = []
        free = self._free
        pos = self.pos
        for p, seq_ids in entries:
            if not seq_ids:
                raise KVCacheError("a cell must belong to at least one sequence")
            if p < 0:
                raise KVCacheError(f"invalid position {p}")
            # Duplicate ids are harmless (membership marking is
            # idempotent), so the per-entry ``set()`` dedup is skipped.
            ids = seq_ids if isinstance(seq_ids, (list, tuple)) else list(seq_ids)
            lo_id = min(ids)
            if lo_id < 0:
                raise KVCacheError(f"invalid sequence id {lo_id}")
            self._ensure_seq(max(ids))
            cell = heapq.heappop(free)
            if cell >= self._high_water:
                self._high_water = cell + 1
            pos[cell] = p
            if len(ids) == 1:
                self._member[cell, ids[0]] = True
            else:
                self._member[cell, list(ids)] = True
            cells.append(cell)
        return cells

    def grow(self, n_cells: int) -> int:
        """Extend capacity to ``n_cells`` in place; returns the new capacity.

        Existing cells keep their indices, metadata, and K/V tensors, so
        every outstanding cell reference stays valid — the head-side draft
        plane grows its shared cache this way as serving chains lengthen.
        A ``n_cells`` at or below the current capacity is a no-op.
        """
        if n_cells <= self.n_cells:
            return self.n_cells
        old = self.n_cells
        pos = np.full(n_cells, -1, dtype=np.int64)
        pos[:old] = self.pos
        self.pos = pos
        member = np.zeros((n_cells, self._member.shape[1]), dtype=bool)
        member[:old] = self._member
        self._member = member
        self._free.extend(range(old, n_cells))
        heapq.heapify(self._free)
        if self.k is not None:
            k = np.zeros((self.n_layers, n_cells, self.kv_dim), dtype=self.k.dtype)
            v = np.zeros_like(k)
            k[:, :old] = self.k
            v[:, :old] = self.v
            self.k, self.v = k, v
        self.n_cells = n_cells
        return self.n_cells

    def write(self, layer: int, cells, k: np.ndarray, v: np.ndarray) -> None:
        """Store K/V rows for ``cells`` at ``layer`` (tensor-backed only).

        ``cells`` should be an integer ndarray (the engines convert once
        per batch and reuse it across layers); sequences are accepted and
        converted for convenience.
        """
        if self.k is None:
            raise KVCacheError("metadata-only cache cannot store tensors")
        if not isinstance(cells, np.ndarray):
            cells = np.asarray(cells, dtype=np.intp)
        self.k[layer, cells] = k
        self.v[layer, cells] = v

    # -- sequence operations -----------------------------------------------------

    def seq_cp(self, seq_src: int, seq_dst: int, p0: int, p1: int) -> int:
        """Add ``seq_dst`` to cells of ``seq_src`` with p0 <= pos < p1.

        Returns the number of cells affected.  Metadata-only: K/V tensors
        are shared between the sequences afterwards.  A position the
        destination already holds is skipped: a second (seq, pos) cell
        would double-count that key in attention, and interval metadata
        (:class:`~repro.models.range_cache.RangeKVCache`) cannot represent
        the duplicate.  When several source cells share a position, the
        lowest-indexed one is copied (scan order of the reference).
        """
        self._check_range(p0, p1)
        if seq_src == seq_dst:
            return 0
        if not self._col(seq_src):
            if seq_src < 0:
                raise KVCacheError(f"invalid sequence id {seq_src}")
            return 0
        # Scans stop at the high-water mark: cells past it have never been
        # allocated, so they belong to no sequence.  Membership first:
        # the sequence's column is sparse relative to the high-water
        # range, so narrowing to its cells before the position compare
        # touches far fewer elements — and subsetting an ascending index
        # list keeps it ascending, so the result is the same ``cand``.
        hw = self._high_water
        pos = self.pos[:hw]
        owned = np.flatnonzero(self._member[:hw, seq_src])
        owned_pos = pos[owned]
        cand = owned[(owned_pos >= p0) & (owned_pos < p1)]
        if cand.size == 0:
            return 0
        self._ensure_seq(seq_dst)
        # First cell per distinct source position, then drop positions the
        # destination already holds.  Copies into a *fresh* partition (the
        # common case: materializing a new run's context) skip the
        # destination-position scan entirely.
        cand_pos = pos[cand]
        if cand_pos.size == 1 or (cand_pos[1:] > cand_pos[:-1]).all():
            # Cells allocated lowest-index-first while a prompt is decoded
            # in order leave positions already strictly ascending — the
            # common prefix-admission shape; skip the unique() sort.
            uniq_pos, first = cand_pos, np.arange(cand_pos.size)
        else:
            uniq_pos, first = np.unique(cand_pos, return_index=True)
        dst_owned = np.flatnonzero(self._member[:hw, seq_dst])
        if dst_owned.size:
            # Membership via a Python set: the position lists are tiny
            # (tens of entries), where ``np.isin``'s sort-based path is
            # all fixed overhead.  Same boolean outcome by definition.
            dst_pos = {p for p in pos[dst_owned].tolist() if p >= 0}
            keep = [i for i, p in enumerate(uniq_pos.tolist())
                    if p not in dst_pos]
            chosen = cand[first[keep]]
        else:
            chosen = cand[first]
        self._member[chosen, seq_dst] = True
        return int(chosen.size)

    def seq_rm(self, seq: int, p0: int, p1: int) -> int:
        """Remove ``seq`` from cells with p0 <= pos < p1; free emptied cells."""
        self._check_range(p0, p1)
        if not self._col(seq):
            return 0
        hw = self._high_water
        pos = self.pos[:hw]
        owned = np.flatnonzero(self._member[:hw, seq])
        owned_pos = pos[owned]
        hit = owned[(owned_pos >= p0) & (owned_pos < p1)]
        if hit.size == 0:
            return 0
        self._member[hit, seq] = False
        emptied = hit[~self._member[hit].any(axis=1)]
        if emptied.size:
            self._release(emptied)
        return int(hit.size)

    def seq_keep(self, seq: int) -> int:
        """Drop every sequence except ``seq``; free cells not in it."""
        live = self.pos >= 0
        has_col = self._col(seq)
        if has_col:
            keep = live & self._member[:, seq]
        else:
            keep = np.zeros(self.n_cells, dtype=bool)
        drop = np.flatnonzero(live & ~keep)
        self._member[:, :] = False
        if has_col:
            self._member[keep, seq] = True
        if drop.size:
            self._release(drop)
        return int(drop.size)

    def seq_broadcast(self, seq_src: int, p0: int, p1: int, targets: Iterable[int]) -> int:
        """Copy ``seq_src``'s cells in range into every sequence in ``targets``.

        Implements acceptance propagation (Section IV-C2): accepted entries
        are copied to all other sequences so new runs find correct context.

        Equivalent to ``seq_cp(seq_src, dst, ...)`` per target, but the
        source-side scan (candidate cells, first-per-position selection) is
        computed once and shared: adding ``dst`` members never changes the
        source column, so only the destination-position filter differs per
        target.
        """
        targets = list(targets)
        if not targets:
            return 0
        self._check_range(p0, p1)
        if not self._col(seq_src):
            if seq_src < 0:
                raise KVCacheError(f"invalid sequence id {seq_src}")
            return 0
        hw = self._high_water
        pos = self.pos[:hw]
        owned = np.flatnonzero(self._member[:hw, seq_src])
        owned_pos = pos[owned]
        cand = owned[(owned_pos >= p0) & (owned_pos < p1)]
        if cand.size == 0:
            return 0
        cand_pos = pos[cand]
        if cand_pos.size == 1 or (cand_pos[1:] > cand_pos[:-1]).all():
            uniq_pos, first = cand_pos, np.arange(cand_pos.size)
        else:
            uniq_pos, first = np.unique(cand_pos, return_index=True)
        default = cand[first]
        n = 0
        for dst in targets:
            if dst == seq_src:
                continue
            self._ensure_seq(dst)
            dst_owned = np.flatnonzero(self._member[:hw, dst])
            if dst_owned.size:
                dst_pos = {p for p in pos[dst_owned].tolist() if p >= 0}
                keep = [i for i, p in enumerate(uniq_pos.tolist())
                        if p not in dst_pos]
                chosen = cand[first[keep]]
            else:
                chosen = default
            self._member[chosen, dst] = True
            n += int(chosen.size)
        return n

    # -- queries ---------------------------------------------------------------

    def seq_max_pos(self, seq: int) -> int:
        """Highest position stored for ``seq``, or -1 when empty."""
        if not self._col(seq):
            return -1
        held = self.pos[self._member[:, seq] & (self.pos >= 0)]
        return int(held.max()) if held.size else -1

    def seq_cells(self, seq: int) -> List[int]:
        """Cells belonging to ``seq``, sorted by position."""
        if not self._col(seq):
            return []
        cells = np.flatnonzero(self._member[:, seq] & (self.pos >= 0))
        order = np.argsort(self.pos[cells], kind="stable")
        return [int(c) for c in cells[order]]

    def seq_positions(self, seq: int) -> List[int]:
        """Sorted positions stored for ``seq``."""
        if not self._col(seq):
            return []
        cells = np.flatnonzero(self._member[:, seq] & (self.pos >= 0))
        return sorted(int(p) for p in self.pos[cells])

    def visible_cells(self, seq: int, pos: int, inclusive: bool = True) -> np.ndarray:
        """Cell indices visible to a query at (seq, pos).

        A cell is visible when it belongs to ``seq`` and sits at an earlier
        position; with ``inclusive`` (the default, matching causal
        self-attention) the query's own position is visible too.
        """
        if not self._col(seq):
            return np.empty(0, dtype=np.int64)
        mask = self._member[:, seq] & (self.pos >= 0)
        if inclusive:
            mask &= self.pos <= pos
        else:
            mask &= self.pos < pos
        return np.flatnonzero(mask).astype(np.int64)

    def visible_matrix(
        self,
        seq_ids: Sequence[int],
        positions: Sequence[int],
        inclusive: bool = True,
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """Batched visibility: boolean ``(n_tokens, n_cells)`` mask.

        Row *i* is ``visible_cells(seq_ids[i], positions[i])`` as a mask.
        Visibility depends only on cache metadata, never on the layer, so
        the functional transformer computes this once per decode batch and
        reuses it across its whole layer range.

        ``limit`` truncates the cell axis (rows become ``limit`` wide):
        hot callers pass :attr:`high_water` so a mostly-empty cache is not
        scanned to its full capacity — cells past the high-water mark have
        never been allocated and are invisible by construction.
        """
        seq_ids = np.asarray(seq_ids, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        end = self.n_cells if limit is None else min(limit, self.n_cells)
        cols = self._member.shape[1]
        if seq_ids.size and 0 <= seq_ids.min() and seq_ids.max() < cols:
            # Hot path: every query sequence has a column.
            member = self._member[:end, seq_ids].T
        else:
            valid = (seq_ids >= 0) & (seq_ids < cols)
            member = (
                self._member[:end, np.clip(seq_ids, 0, cols - 1)].T
                & valid[:, None]
            )
        pos = self.pos[:end]
        live = pos >= 0
        if inclusive:
            reach = pos[None, :] <= positions[:, None]
        else:
            reach = pos[None, :] < positions[:, None]
        return member & live[None, :] & reach

    def has_entry(self, seq: int, pos: int) -> bool:
        """True when ``seq`` already holds a cell at position ``pos``."""
        if not self._col(seq):
            return False
        return bool(np.any(self._member[:, seq] & (self.pos == pos) & (self.pos >= 0)))

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _check_range(p0: int, p1: int) -> None:
        if p0 < 0 or p1 < p0:
            raise KVCacheError(f"invalid position range [{p0}, {p1})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KVCache(cells={self.n_cells}, used={self.n_used}, layers={self.n_layers})"
