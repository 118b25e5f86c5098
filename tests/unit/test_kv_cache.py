"""llama.cpp-style KV cache: metadata, sequence ops, visibility."""

import numpy as np
import pytest

from repro.models.kv_cache import KVCache, KVCacheError


@pytest.fixture()
def cache():
    return KVCache(n_cells=16)


class TestAllocation:
    def test_allocate_sets_metadata(self, cache):
        cells = cache.allocate([(0, {0}), (1, {0})])
        assert len(cells) == 2
        assert cache.pos[cells[0]] == 0
        assert cache.seqs[cells[1]] == {0}
        assert cache.n_used == 2

    def test_overflow(self):
        c = KVCache(2)
        c.allocate([(0, {0}), (1, {0})])
        with pytest.raises(KVCacheError):
            c.allocate([(2, {0})])

    def test_empty_seq_set_rejected(self, cache):
        with pytest.raises(KVCacheError):
            cache.allocate([(0, set())])

    def test_negative_position_rejected(self, cache):
        with pytest.raises(KVCacheError):
            cache.allocate([(-1, {0})])

    def test_negative_seq_id_rejected(self, cache):
        # A negative id must not wrap to a high membership-matrix column.
        with pytest.raises(KVCacheError):
            cache.allocate([(0, {-1, 3})])

    def test_multi_seq_cell(self, cache):
        (cell,) = cache.allocate([(5, {0, 2, 3})])
        assert cache.seqs[cell] == {0, 2, 3}


class TestSequenceOps:
    def test_seq_cp_shares_cells(self, cache):
        cache.allocate([(i, {0}) for i in range(4)])
        n = cache.seq_cp(0, 1, 1, 3)
        assert n == 2
        assert cache.seq_positions(1) == [1, 2]
        # Metadata copy: no new cells.
        assert cache.n_used == 4

    def test_seq_cp_self_noop(self, cache):
        cache.allocate([(0, {0})])
        assert cache.seq_cp(0, 0, 0, 10) == 0

    def test_seq_rm_frees_orphans(self, cache):
        cache.allocate([(0, {1}), (1, {1})])
        cache.seq_rm(1, 0, 2)
        assert cache.n_used == 0

    def test_seq_rm_keeps_shared_cells(self, cache):
        cache.allocate([(0, {0, 1})])
        cache.seq_rm(1, 0, 1)
        assert cache.n_used == 1
        assert cache.seq_positions(0) == [0]
        assert cache.seq_positions(1) == []

    def test_seq_broadcast(self, cache):
        cache.allocate([(0, {5})])
        cache.seq_broadcast(5, 0, 1, targets=[0, 1, 2])
        for s in (0, 1, 2, 5):
            assert cache.has_entry(s, 0)

    def test_invalid_range(self, cache):
        with pytest.raises(KVCacheError):
            cache.seq_rm(0, 5, 3)
        with pytest.raises(KVCacheError):
            cache.seq_cp(0, 1, -1, 3)


class TestQueries:
    def test_seq_max_pos(self, cache):
        cache.allocate([(3, {0}), (7, {0}), (5, {1})])
        assert cache.seq_max_pos(0) == 7
        assert cache.seq_max_pos(1) == 5
        assert cache.seq_max_pos(9) == -1

    def test_visible_cells_causal(self, cache):
        cells = cache.allocate([(0, {0}), (1, {0}), (2, {0}), (1, {1})])
        vis = cache.visible_cells(0, 1)
        assert set(vis) == {cells[0], cells[1]}  # inclusive of own position
        vis_strict = cache.visible_cells(0, 1, inclusive=False)
        assert set(vis_strict) == {cells[0]}

    def test_visible_cells_respects_sequences(self, cache):
        cells = cache.allocate([(0, {0}), (0, {1})])
        assert set(cache.visible_cells(0, 5)) == {cells[0]}
        assert set(cache.visible_cells(1, 5)) == {cells[1]}

    def test_has_entry(self, cache):
        cache.allocate([(4, {2})])
        assert cache.has_entry(2, 4)
        assert not cache.has_entry(2, 5)
        assert not cache.has_entry(3, 4)

    def test_seq_cells_sorted_by_position(self, cache):
        cache.allocate([(5, {0}), (2, {0}), (9, {0})])
        positions = [int(cache.pos[c]) for c in cache.seq_cells(0)]
        assert positions == [2, 5, 9]


class TestBatchedQueries:
    @staticmethod
    def expand(cache, seqs, positions, inclusive=True):
        """Per-token visible cell lists of the compact ``(cells, mask)``."""
        cells, mask = cache.visible_matrix(seqs, positions, inclusive=inclusive)
        assert mask.shape == (len(seqs), len(cells))
        assert list(cells) == sorted(set(int(c) for c in cells))
        # Compact: every returned cell is seen by at least one query.
        assert mask.any(axis=0).all()
        return [list(cells[row]) for row in mask]

    def test_visible_matrix_matches_per_token_queries(self, cache):
        cache.allocate([(0, {0}), (1, {0}), (2, {0}), (1, {1}), (2, {1})])
        seqs = [0, 1, 0, 1]
        positions = [2, 1, 0, 5]
        rows = self.expand(cache, seqs, positions)
        for row, s, p in zip(rows, seqs, positions):
            assert row == list(cache.visible_cells(s, p))
        # One sequence per batch (every pipeline run) reads only its row.
        rows = self.expand(cache, [0, 0], [0, 1])
        assert rows == [list(cache.visible_cells(0, 0)), list(cache.visible_cells(0, 1))]

    def test_visible_matrix_strict(self, cache):
        cache.allocate([(0, {0}), (1, {0}), (0, {1}), (1, {1})])
        for seqs, positions in (([0], [1]), ([0, 0], [1, 2]), ([0, 1], [1, 2])):
            rows = self.expand(cache, seqs, positions, inclusive=False)
            for row, s, p in zip(rows, seqs, positions):
                assert row == list(cache.visible_cells(s, p, inclusive=False))

    def test_visible_matrix_unknown_seq_is_empty(self, cache):
        cache.allocate([(0, {0})])
        cells, mask = cache.visible_matrix([999], [10])
        assert cells.size == 0 and mask.shape == (1, 0)
        # Mixed with a known sequence, the unknown one's row stays empty.
        rows = self.expand(cache, [999, 0], [10, 10])
        assert rows == [[], list(cache.visible_cells(0, 10))]

    def test_counters_track_alloc_and_free(self, cache):
        assert cache.n_free == 16 and cache.n_used == 0
        cache.allocate([(i, {0}) for i in range(5)])
        assert cache.n_used == 5 and cache.n_free == 11
        cache.seq_rm(0, 0, 3)
        assert cache.n_used == 2 and cache.n_free == 14

    def test_freed_cells_reused_lowest_first(self, cache):
        cells = cache.allocate([(i, {0}) for i in range(6)])
        cache.seq_rm(0, 1, 3)  # frees cells[1], cells[2]
        again = cache.allocate([(10, {1}), (11, {1}), (12, {1})])
        # Lowest free indices first: the two freed cells, then the next
        # never-used cell — the reference scan order.
        assert again == [cells[1], cells[2], 6]

    def test_seqs_view_reflects_ops(self, cache):
        (cell,) = cache.allocate([(0, {1, 3})])
        assert cache.seqs[cell] == {1, 3}
        cache.seq_rm(3, 0, 1)
        assert cache.seqs[cell] == {1}
        assert len(cache.seqs) == cache.n_cells


class TestTensorBacked:
    def test_write_and_read(self):
        c = KVCache(8, n_layers=2, kv_dim=4)
        cells = c.allocate([(0, {0}), (1, {0})])
        k = np.ones((2, 4))
        v = 2 * np.ones((2, 4))
        c.write(1, cells, k, v)
        assert np.all(c.k[1, cells] == 1)
        assert np.all(c.v[1, cells] == 2)

    def test_metadata_only_rejects_write(self):
        c = KVCache(8)
        cells = c.allocate([(0, {0})])
        with pytest.raises(KVCacheError):
            c.write(0, cells, np.zeros((1, 4)), np.zeros((1, 4)))

    def test_tensor_backed_needs_kv_dim(self):
        with pytest.raises(ValueError):
            KVCache(8, n_layers=2, kv_dim=0)

    def test_reallocation_reuses_freed_cells(self):
        c = KVCache(2)
        cells = c.allocate([(0, {1}), (1, {1})])
        c.seq_rm(1, 0, 2)
        again = c.allocate([(5, {2}), (6, {2})])
        assert set(again) == set(cells)


class TestGrow:
    def test_grow_preserves_metadata_and_tensors(self):
        c = KVCache(4, n_layers=2, kv_dim=3)
        cells = c.allocate([(0, {0}), (1, {0}), (2, {1})])
        c.write(0, cells, np.arange(9.0).reshape(3, 3), np.ones((3, 3)))
        assert c.grow(10) == 10
        assert c.n_cells == 10
        assert c.seq_positions(0) == [0, 1]
        assert c.seq_positions(1) == [2]
        assert np.all(c.k[0, cells] == np.arange(9.0).reshape(3, 3))
        assert np.all(c.v[0, cells] == 1)
        # The new cells are free and allocatable.
        more = c.allocate([(p, {2}) for p in range(7)])
        assert len(more) == 7
        assert c.n_used == 10

    def test_grow_is_monotonic(self):
        c = KVCache(8)
        assert c.grow(4) == 8  # never shrinks
        assert c.grow(8) == 8
        assert c.n_cells == 8

    def test_grow_allocation_order_lowest_first(self):
        c = KVCache(2)
        c.allocate([(0, {0}), (1, {0})])
        c.seq_rm(0, 0, 1)  # frees cell 0
        c.grow(5)
        got = c.allocate([(5, {1}), (6, {1})])
        assert got == [0, 2]  # freed low cell first, then the first new one

    def test_grow_visibility_unchanged(self):
        c = KVCache(3)
        c.allocate([(0, {0}), (1, {0}), (2, {0})])
        before = c.visible_cells(0, 2).tolist()
        c.grow(12)
        assert c.visible_cells(0, 2).tolist() == before
        assert c.high_water == 3
