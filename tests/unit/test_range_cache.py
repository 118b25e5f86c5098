"""Interval-set metadata cache used by the cluster simulation."""

from repro.models.range_cache import IntervalSet, RangeKVCache


class TestIntervalSet:
    def test_add_and_contains(self):
        s = IntervalSet()
        s.add(2, 5)
        assert 2 in s and 4 in s and 5 not in s

    def test_merge_touching(self):
        s = IntervalSet()
        s.add(0, 3)
        s.add(3, 6)
        assert s.intervals() == [(0, 6)]

    def test_merge_overlapping(self):
        s = IntervalSet([(0, 4), (10, 12)])
        s.add(3, 11)
        assert s.intervals() == [(0, 12)]

    def test_add_empty_noop(self):
        s = IntervalSet()
        s.add(5, 5)
        assert not s

    # Inserts before the last interval take the bisect path.
    def test_add_touching_next_interval(self):
        s = IntervalSet([(0, 2), (5, 7), (10, 12)])
        s.add(3, 5)
        assert s.intervals() == [(0, 2), (3, 7), (10, 12)]

    def test_add_touching_previous_interval(self):
        s = IntervalSet([(0, 2), (5, 7), (10, 12)])
        s.add(2, 4)
        assert s.intervals() == [(0, 4), (5, 7), (10, 12)]

    def test_add_in_gap(self):
        s = IntervalSet([(0, 2), (5, 7), (10, 12)])
        s.add(3, 4)
        assert s.intervals() == [(0, 2), (3, 4), (5, 7), (10, 12)]

    def test_add_spanning_several(self):
        s = IntervalSet([(0, 2), (5, 7), (10, 12), (20, 21)])
        s.add(1, 10)
        assert s.intervals() == [(0, 12), (20, 21)]

    def test_add_extends_last(self):
        s = IntervalSet([(0, 2), (5, 7)])
        s.add(6, 9)
        s.add(9, 10)
        s.add(12, 13)
        assert s.intervals() == [(0, 2), (5, 10), (12, 13)]

    def test_remove_splits(self):
        s = IntervalSet([(0, 10)])
        s.remove(3, 6)
        assert s.intervals() == [(0, 3), (6, 10)]

    def test_remove_across_intervals(self):
        s = IntervalSet([(0, 4), (6, 9)])
        s.remove(2, 8)
        assert s.intervals() == [(0, 2), (8, 9)]

    def test_remove_spanning_several_returns_count(self):
        s = IntervalSet([(0, 4), (6, 9), (12, 15)])
        assert s.remove(2, 13) == 2 + 3 + 1
        assert s.intervals() == [(0, 2), (13, 15)]
        assert s.remove(4, 13) == 0

    def test_clip(self):
        s = IntervalSet([(0, 4), (6, 9)])
        assert s.clip(2, 7).intervals() == [(2, 4), (6, 7)]

    def test_clip_excludes_touching_neighbours(self):
        s = IntervalSet([(0, 2), (5, 7)])
        assert s.clip(2, 5).intervals() == []
        assert s.clip(1, 6).intervals() == [(1, 2), (5, 6)]

    def test_len_and_max(self):
        s = IntervalSet([(0, 3), (10, 11)])
        assert len(s) == 4
        assert s.max_value() == 10
        assert IntervalSet().max_value() == -1

    def test_positions(self):
        assert IntervalSet([(1, 3), (7, 8)]).positions() == [1, 2, 7]

class TestRangeKVCache:
    def test_add_tokens_and_query(self):
        c = RangeKVCache()
        c.add_tokens(0, [0, 1, 2])
        assert c.seq_positions(0) == [0, 1, 2]
        assert c.seq_max_pos(0) == 2
        assert c.has_entry(0, 1)
        assert not c.has_entry(0, 5)

    def test_add_tokens_takes_a_run_at_once(self):
        c = RangeKVCache()
        c.add_tokens(0, [5, 6, 7, 1, 2, 9, 6])
        assert c.seq_positions(0) == [1, 2, 5, 6, 7, 9]

    def test_seq_cp_range(self):
        c = RangeKVCache()
        c.add_tokens(0, range(10))
        n = c.seq_cp(0, 3, 2, 6)
        assert n == 4
        assert c.seq_positions(3) == [2, 3, 4, 5]

    def test_seq_cp_merges_clipped_intervals(self):
        c = RangeKVCache()
        c.add_tokens(0, [0, 1, 2, 5, 6, 9])
        c.add_tokens(1, [3, 8])
        assert c.seq_cp(0, 1, 1, 9) == 4
        assert c.seq_positions(1) == [1, 2, 3, 5, 6, 8]

    def test_seq_cp_self_noop(self):
        c = RangeKVCache()
        c.add_tokens(1, [0])
        assert c.seq_cp(1, 1, 0, 10) == 0

    def test_seq_rm(self):
        c = RangeKVCache()
        c.add_tokens(2, range(5))
        removed = c.seq_rm(2, 1, 3)
        assert removed == 2
        assert c.seq_positions(2) == [0, 3, 4]

    def test_seq_broadcast(self):
        c = RangeKVCache()
        c.add_tokens(1, [4])
        c.seq_broadcast(1, 0, 10, targets=[0, 2])
        assert c.has_entry(0, 4) and c.has_entry(2, 4)

    def test_unknown_seq_empty(self):
        c = RangeKVCache()
        assert c.seq_positions(42) == []
        assert c.seq_max_pos(42) == -1
