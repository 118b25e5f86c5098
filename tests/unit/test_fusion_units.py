"""Unit coverage for the fusion-window building blocks."""

import numpy as np

from repro.cluster.testbed import cluster_c
from repro.engines.backend import OracleBackend
from repro.metrics.collectors import MetricsCollector, RunStats
from repro.models.kv_cache import KVCache
from repro.models.layers import apply_rope_tables, rope_frequencies, rope_tables
from repro.models.zoo import get_pair

from oracles.layers import apply_rope


class TestStageChunksMulti:
    def test_oracle_fused_cheaper_than_sum_of_singletons(self):
        cluster = cluster_c(2)
        backend = OracleBackend(get_pair("dolphin+tinyllama"),
                                head_node=cluster.nodes[0])
        node = cluster.nodes[1]
        counts = [1, 4, 2]
        # A fused window is charged one stage time for its concatenated
        # token count (the worker's ``stage_chunks(sum(counts))``).
        fused_chunks = backend.stage_chunks(node, (0, 11), sum(counts))
        singles = sum(
            sum(backend.stage_chunks(node, (0, 11), n)) for n in counts
        )
        # Weights are streamed and overhead paid once for the window, not
        # once per run (the per-token KV-read term still scales).
        assert sum(fused_chunks) < 0.85 * singles
        # Chunk structure (cancellation probe points) follows the layers,
        # not the window's width.
        assert len(fused_chunks) == len(backend.stage_chunks(node, (0, 11), 1))


class TestRopeTables:
    def test_tables_match_direct_rotation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2, 8))
        positions = np.array([0, 3, 7, 7])
        freqs = rope_frequencies(8)
        rot = rope_tables(positions, freqs)
        # The complex multiply and the real pair rotation round apart by
        # at most an ulp or two of these O(1) values.
        np.testing.assert_allclose(
            apply_rope_tables(x, rot), apply_rope(x, positions, freqs),
            rtol=0, atol=1e-14,
        )

    def test_model_caches_tables_per_positions_tuple(self, tiny_target):
        p1 = np.array([0, 1, 2], dtype=np.int64)
        t1 = tiny_target._rope_tables(p1)
        t2 = tiny_target._rope_tables(np.array([0, 1, 2], dtype=np.int64))
        assert t1 is t2  # cache hit: same object, no recompute
        t3 = tiny_target._rope_tables(np.array([0, 1, 3], dtype=np.int64))
        assert t3 is not t1


class TestFusionMetrics:
    def test_histogram_aggregates_across_ranks(self):
        m = MetricsCollector()
        m.record_fusion(1, 1)
        m.record_fusion(1, 3)
        m.record_fusion(2, 3)
        m.record_fusion(2, 3)
        assert m.fusion_width == {1: {1: 1, 3: 1}, 2: {3: 2}}
        assert m.fusion_width_hist() == {1: 1, 3: 3}

    def test_runstats_merge_includes_fusion_counters(self):
        a, b = RunStats(), RunStats()
        a.fused_batches, a.fused_runs = 2, 5
        b.fused_batches, b.fused_runs = 1, 2
        a.merge(b)
        assert (a.fused_batches, a.fused_runs) == (3, 7)


class TestHighWaterVisibility:
    def test_high_water_tracks_peak_allocation(self):
        cache = KVCache(16)
        assert cache.high_water == 0
        cells = cache.allocate([(0, {0}), (1, {0}), (2, {0})])
        assert cache.high_water == max(cells) + 1
        cache.seq_rm(0, 0, 1 << 40)  # frees everything...
        assert cache.n_used == 0
        assert cache.high_water == max(cells) + 1  # ...but the mark stays

    def test_compact_cells_ascend_below_high_water(self):
        cache = KVCache(32)
        cache.allocate([(p, {p % 3}) for p in range(10)])
        cache.seq_cp(0, 1, 0, 5)
        cache.seq_rm(2, 0, 1 << 40)  # freed cells stay under the mark
        for seqs, positions in (([0, 1, 2], [4, 9, 9]), ([1, 1], [3, 9]), ([0], [9])):
            cells, mask = cache.visible_matrix(seqs, positions)
            assert list(cells) == sorted(set(cells.tolist()))
            assert cells.size == 0 or cells[-1] < cache.high_water
            assert mask.shape == (len(seqs), cells.size)
            for row, s, p in zip(mask, seqs, positions):
                assert list(cells[row]) == list(cache.visible_cells(s, p))
