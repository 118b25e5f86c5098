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
- ``_member``: ``(n_seq_rows, n_cells)`` boolean membership matrix,
  *sequence-major*: one sequence's membership is one contiguous row, and
  rows are grown on demand as higher sequence ids appear;
- ``_free``: a min-heap of free cell indices, so allocation hands out the
  lowest-indexed free cells (the same order a linear scan would) in
  O(log n) instead of scanning every cell.

A cell belongs to a sequence only while it is live (``pos >= 0``): every
op that frees a cell clears its membership first.  Scans therefore never
re-check liveness, and they stop at the high-water mark (one past the
highest cell ever allocated).  Costs, with ``hw`` the high-water mark and
``k`` the cells a sequence owns:

- ``allocate``: O(log n) heap pop and one membership write per entry;
- ``seq_cp`` / ``seq_broadcast``: one contiguous ``hw``-byte row scan of
  the source, O(k) position work, and per destination one row scan plus
  a boolean ``held``-by-position lookup that drops positions it already
  holds; a whole-range op (``p0 == 0`` and ``p1`` past the top owned
  position: every prefix copy) skips the range filter;
- ``seq_rm``: one row scan and O(k · n_seq_rows) emptiness check; a
  whole-range release (``SEQ_RM 0..SEQ_END``) skips the range filter;
- ``visible_matrix``: compact visibility, ``(cells, mask)`` over just the
  cells some query sees.  A batch of one sequence (every pipeline run)
  reads only that sequence's row; a causal batch holding its sequence's
  top position skips the visibility filter.

Semantics are identical to the pure-Python per-cell-set reference the
differential property tests keep (``tests/oracles/kv_cache.py``):
positional dedupe in ``seq_cp``, free-on-empty, strict/inclusive
visibility, duplicate ``(seq, pos)`` cells included.

The cache is used at two fidelity levels:

- metadata-only (``n_layers=0``): the cluster simulation tracks cell
  occupancy and sequence structure without tensors;
- tensor-backed: the functional transformer stores real K/V arrays per
  layer and builds attention plans from the metadata.

A cell is free when its sequence set is empty.  Attention visibility for a
query (seq, pos) is: cell carries ``seq`` and ``cell.pos <= pos``
(inclusive, the causal default: the query's own cell is written during
the same forward) or ``cell.pos < pos`` (strict).
"""

from __future__ import annotations

import heapq
import operator
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

#: Initial sequence-id capacity (rows) of the membership matrix.
_INITIAL_SEQ_ROWS = 8


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
        return {int(s) for s in np.flatnonzero(self._cache._member[:, cell])}

    def __len__(self) -> int:
        return self._cache.n_cells


def _first_per_position(cand: np.ndarray, cand_pos: np.ndarray):
    """Distinct positions of ``cand`` and the lowest cell holding each.

    Cells allocated lowest-index-first while a prompt is decoded in order
    leave positions already strictly ascending — the common shape; it
    skips the ``unique()`` sort.
    """
    if cand_pos.size == 1 or (cand_pos[1:] > cand_pos[:-1]).all():
        return cand_pos, cand
    uniq_pos, first = np.unique(cand_pos, return_index=True)
    return uniq_pos, cand[first]


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
        #: seq -> cell membership rows (sequence-major).
        self._member = np.zeros((_INITIAL_SEQ_ROWS, n_cells), dtype=bool)
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
        """Grow the membership matrix to cover row ``seq``."""
        if seq < 0:
            raise KVCacheError(f"invalid sequence id {seq}")
        rows = self._member.shape[0]
        if seq < rows:
            return
        while rows <= seq:
            rows *= 2
        grown = np.zeros((rows, self.n_cells), dtype=bool)
        grown[: self._member.shape[0]] = self._member
        self._member = grown

    def _row(self, seq: int) -> bool:
        """True when ``seq`` has a row (i.e. may have members)."""
        return 0 <= seq < self._member.shape[0]

    def _owned(self, seq: int, p0: int, p1: int):
        """Cells of ``seq`` with p0 <= pos < p1 (ascending) and their positions.

        Only the sequence's row up to the high-water mark is read; a
        whole-range query (``p0 == 0``, ``p1`` past every owned position)
        returns the row's cells without filtering.
        """
        owned = self._member[seq, : self._high_water].nonzero()[0]
        owned_pos = self.pos[owned]
        if owned.size and not (p0 == 0 and owned_pos.max() < p1):
            keep = (owned_pos >= p0) & (owned_pos < p1)
            owned, owned_pos = owned[keep], owned_pos[keep]
        return owned, owned_pos

    def _not_held(self, dst: int, uniq_pos: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """``cells`` (one per ascending ``uniq_pos``) at positions ``dst`` lacks."""
        dst_owned = self._member[dst, : self._high_water].nonzero()[0]
        if not dst_owned.size:
            return cells
        dst_pos = self.pos[dst_owned]
        held = np.zeros(int(max(uniq_pos[-1], dst_pos.max())) + 1, dtype=bool)
        held[dst_pos] = True
        return cells[~held[uniq_pos]]

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
                self._member[ids[0], cell] = True
            else:
                self._member[list(ids), cell] = True
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
        member = np.zeros((self._member.shape[0], n_cells), dtype=bool)
        member[:, :old] = self._member
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
        if not self._row(seq_src):
            if seq_src < 0:
                raise KVCacheError(f"invalid sequence id {seq_src}")
            return 0
        cand, cand_pos = self._owned(seq_src, p0, p1)
        if cand.size == 0:
            return 0
        self._ensure_seq(seq_dst)
        uniq_pos, first = _first_per_position(cand, cand_pos)
        chosen = self._not_held(seq_dst, uniq_pos, first)
        self._member[seq_dst, chosen] = True
        return int(chosen.size)

    def seq_rm(self, seq: int, p0: int, p1: int) -> int:
        """Remove ``seq`` from cells with p0 <= pos < p1; free emptied cells."""
        self._check_range(p0, p1)
        if not self._row(seq):
            return 0
        hit, _ = self._owned(seq, p0, p1)
        if hit.size == 0:
            return 0
        self._member[seq, hit] = False
        emptied = hit[~self._member.take(hit, axis=1).any(axis=0)]
        if emptied.size:
            self._release(emptied)
        return int(hit.size)

    def seq_broadcast(self, seq_src: int, p0: int, p1: int, targets: Iterable[int]) -> int:
        """Copy ``seq_src``'s cells in range into every sequence in ``targets``.

        Implements acceptance propagation (Section IV-C2): accepted entries
        are copied to all other sequences so new runs find correct context.

        Equivalent to ``seq_cp(seq_src, dst, ...)`` per target, but the
        source-side scan (candidate cells, first-per-position selection) is
        computed once and shared: adding ``dst`` members never changes the
        source row, so only the destination-position filter differs per
        target.
        """
        targets = list(targets)
        if not targets:
            return 0
        self._check_range(p0, p1)
        if not self._row(seq_src):
            if seq_src < 0:
                raise KVCacheError(f"invalid sequence id {seq_src}")
            return 0
        cand, cand_pos = self._owned(seq_src, p0, p1)
        if cand.size == 0:
            return 0
        uniq_pos, first = _first_per_position(cand, cand_pos)
        n = 0
        for dst in targets:
            if dst == seq_src:
                continue
            self._ensure_seq(dst)
            chosen = self._not_held(dst, uniq_pos, first)
            self._member[dst, chosen] = True
            n += int(chosen.size)
        return n

    # -- queries ---------------------------------------------------------------

    def seq_max_pos(self, seq: int) -> int:
        """Highest position stored for ``seq``, or -1 when empty."""
        if not self._row(seq):
            return -1
        held = self.pos[self._member[seq]]
        return int(held.max()) if held.size else -1

    def seq_cells(self, seq: int) -> List[int]:
        """Cells belonging to ``seq``, sorted by position."""
        if not self._row(seq):
            return []
        cells = np.flatnonzero(self._member[seq])
        order = np.argsort(self.pos[cells], kind="stable")
        return [int(c) for c in cells[order]]

    def seq_positions(self, seq: int) -> List[int]:
        """Sorted positions stored for ``seq``."""
        if not self._row(seq):
            return []
        return sorted(int(p) for p in self.pos[self._member[seq]])

    def visible_cells(self, seq: int, pos: int, inclusive: bool = True) -> np.ndarray:
        """Cell indices visible to a query at (seq, pos).

        A cell is visible when it belongs to ``seq`` and sits at an earlier
        position; with ``inclusive`` (the default, matching causal
        self-attention) the query's own position is visible too.
        """
        if not self._row(seq):
            return np.empty(0, dtype=np.int64)
        reach = self.pos <= pos if inclusive else self.pos < pos
        return np.flatnonzero(self._member[seq] & reach).astype(np.int64)

    def visible_matrix(
        self,
        seq_ids: Sequence[int],
        positions: Sequence[int],
        inclusive: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched compact visibility: ``(cells, mask)``.

        ``cells`` are the ascending cell indices at least one query sees;
        ``mask`` is the boolean ``(n_tokens, len(cells))`` matrix whose row
        *i* marks which of them ``visible_cells(seq_ids[i], positions[i])``
        holds.  Visibility depends only on cache metadata, never on the
        layer, so the functional transformer computes this once per batch
        and reuses it across its whole layer range.

        A batch whose queries share one sequence reads only that
        sequence's row; a mixed batch scans the rows of its distinct
        sequences.  Either way nothing past the high-water mark is read
        and no ``(n_tokens, n_cells)`` mask is built.
        """
        positions = np.asarray(positions, dtype=np.int64)
        reaches = operator.le if inclusive else operator.lt
        hw = self._high_water
        n_rows = self._member.shape[0]
        seqs = set(seq_ids)
        if len(seqs) == 1:
            seq = seq_ids[0]
            if not 0 <= seq < n_rows:
                return np.empty(0, dtype=np.intp), np.zeros((len(positions), 0), dtype=bool)
            cells = self._member[seq, :hw].nonzero()[0]
            cell_pos = self.pos[cells]
            top = positions.max()
            # A causal batch holding its sequence's top position sees
            # every cell of it: no filter.
            if cells.size and not reaches(cell_pos.max(), top):
                keep = reaches(cell_pos, top)
                cells, cell_pos = cells[keep], cell_pos[keep]
            return cells, reaches(cell_pos[None, :], positions[:, None])
        # Mixed sequences: candidates are the union of the distinct
        # sequences' cells; each query then keeps its own sequence's.
        uniq = sorted(s for s in seqs if 0 <= s < n_rows)
        member = self._member[uniq, :hw]
        cells = member.any(axis=0).nonzero()[0]
        owner = member.take(cells, axis=1)
        if len(uniq) < len(seqs):
            # An unknown sequence owns nothing: give it an empty row.
            owner = np.concatenate([owner, np.zeros((1, cells.size), dtype=bool)])
        row = {s: i for i, s in enumerate(uniq)}
        mask = owner.take([row.get(s, len(uniq)) for s in seq_ids], axis=0)
        mask &= reaches(self.pos[cells][None, :], positions[:, None])
        seen = mask.any(axis=0)
        if seen.all():
            return cells, mask
        return cells[seen], mask.compress(seen, axis=1)

    def has_entry(self, seq: int, pos: int) -> bool:
        """True when ``seq`` already holds a cell at position ``pos``."""
        if not self._row(seq):
            return False
        return bool(np.any(self._member[seq] & (self.pos == pos)))

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _check_range(p0: int, p1: int) -> None:
        if p0 < 0 or p1 < p0:
            raise KVCacheError(f"invalid position range [{p0}, {p1})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KVCache(cells={self.n_cells}, used={self.n_used}, layers={self.n_layers})"
