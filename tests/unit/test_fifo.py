"""Sequence-pool invariants."""

import pytest

from repro.util.fifo import SequencePool


class TestSequencePool:
    def test_allocates_fifo_order_starting_at_one(self):
        pool = SequencePool(3)
        assert [pool.allocate(), pool.allocate(), pool.allocate()] == [1, 2, 3]

    def test_canonical_never_pooled(self):
        pool = SequencePool(2)
        assert 0 not in (pool.allocate(), pool.allocate())
        with pytest.raises(ValueError):
            pool.release(0)

    def test_release_returns_to_tail(self):
        pool = SequencePool(2)
        a = pool.allocate()
        b = pool.allocate()
        pool.release(a)
        pool.release(b)
        assert pool.allocate() == a  # FIFO recycling

    def test_exhaustion(self):
        pool = SequencePool(1)
        pool.allocate()
        assert not pool.available()
        with pytest.raises(RuntimeError):
            pool.allocate()

    def test_double_free_rejected(self):
        pool = SequencePool(1)
        s = pool.allocate()
        pool.release(s)
        with pytest.raises(ValueError):
            pool.release(s)

    def test_release_unallocated_rejected(self):
        pool = SequencePool(2)
        with pytest.raises(ValueError):
            pool.release(1)

    def test_counts(self):
        pool = SequencePool(4)
        pool.allocate()
        assert pool.n_allocated == 1
        assert pool.n_free == 3
        assert pool.capacity == 4

    def test_allocated_snapshot(self):
        pool = SequencePool(3)
        a = pool.allocate()
        assert pool.allocated() == frozenset({a})

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            SequencePool(0)
