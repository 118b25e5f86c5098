"""KV-cache multibuffering: partition lifecycle and cache-op construction."""

import pytest

from repro.comm.payloads import CacheOpKind
from repro.core.multibuffer import MultibufferManager, SEQ_END
from repro.core.run_state import RunKind, RunRecord
from repro.util.fifo import SequencePool


def spec_rec(run_id, tokens, start, seq):
    return RunRecord(run_id, RunKind.SPECULATIVE, list(tokens), start, seq)


def canon_rec(pos, token=1):
    return RunRecord(99, RunKind.CANONICAL, [token], pos, 0)


class TestDispatchOps:
    def test_fresh_chain_copies_from_canonical(self):
        mb = MultibufferManager(pool=SequencePool(4))
        seq = mb.allocate()
        ops = mb.ops_for_spec_dispatch(seq, accepted_len=10, start_pos=10)
        assert len(ops) == 1
        op = ops[0]
        assert op.kind == CacheOpKind.SEQ_CP
        assert (op.seq_src, op.seq_dst) == (0, seq)
        assert (op.p0, op.p1) == (0, 10)

    def test_chained_dispatch_copies_from_newest_partition(self):
        """With a run in flight, the new partition's whole context comes
        from the newest speculative partition (which holds everything,
        including the tip cell the canonical sequence lacks)."""
        mb = MultibufferManager(pool=SequencePool(4))
        s1 = mb.allocate()
        mb.on_spec_dispatch(s1)
        s2 = mb.allocate()
        ops = mb.ops_for_spec_dispatch(s2, accepted_len=10, start_pos=14)
        srcs = [(op.seq_src, op.p0, op.p1) for op in ops]
        assert (0, 0, 9) in srcs
        assert (s1, 9, 14) in srcs

    def test_gap_without_chain_partition_is_an_error(self):
        mb = MultibufferManager(pool=SequencePool(4))
        seq = mb.allocate()
        with pytest.raises(RuntimeError):
            mb.ops_for_spec_dispatch(seq, accepted_len=10, start_pos=12)


class TestAcceptanceOps:
    def test_full_acceptance_copies_all_inputs(self):
        """Run at 10..12 fully accepted plus bonus: accepted_len_after = 14,
        so input cells 10..12 are swapped into the canonical sequence."""
        mb = MultibufferManager(pool=SequencePool(4))
        rec = spec_rec(1, [5, 6, 7], 10, seq=2)
        ops = mb.ops_for_acceptance(rec, accepted_len_after=14)
        assert len(ops) == 1
        assert (ops[0].p0, ops[0].p1) == (10, 13)
        assert (ops[0].seq_src, ops[0].seq_dst) == (2, 0)

    def test_divergence_excludes_rejected_cell(self):
        """Run at 10..12 diverging at 11 (accepted_len_after=12): the cell
        at 11 holds the rejected draft and must NOT reach sequence 0 —
        the regression behind the output-equivalence bug."""
        mb = MultibufferManager(pool=SequencePool(4))
        rec = spec_rec(1, [5, 6, 7], 10, seq=2)
        ops = mb.ops_for_acceptance(rec, accepted_len_after=12)
        assert len(ops) == 1
        assert (ops[0].p0, ops[0].p1) == (10, 11)

    def test_immediate_divergence_yields_no_ops(self):
        mb = MultibufferManager(pool=SequencePool(4))
        rec = spec_rec(1, [5, 6], 10, seq=2)
        assert mb.ops_for_acceptance(rec, accepted_len_after=11) == []

    def test_canonical_needs_no_swap(self):
        mb = MultibufferManager(pool=SequencePool(4))
        assert mb.ops_for_acceptance(canon_rec(5), accepted_len_after=7) == []


class TestReleaseAndLifecycle:
    def test_release_removes_whole_partition(self):
        mb = MultibufferManager(pool=SequencePool(4))
        rec = spec_rec(1, [5], 10, seq=3)
        ops = mb.ops_for_release(rec)
        assert len(ops) == 1
        assert ops[0].kind == CacheOpKind.SEQ_RM
        assert ops[0].seq_src == 3
        assert (ops[0].p0, ops[0].p1) == (0, SEQ_END)

    def test_canonical_release_is_empty(self):
        mb = MultibufferManager(pool=SequencePool(4))
        assert mb.ops_for_release(canon_rec(5)) == []

    def test_complete_returns_partition_to_pool(self):
        mb = MultibufferManager(pool=SequencePool(2))
        s = mb.allocate()
        mb.on_spec_dispatch(s)
        rec = spec_rec(1, [5], 10, seq=s)
        mb.on_run_complete(rec)
        assert mb.pool.available()
        assert mb.chain_seq == 0  # newest chain partition left flight

    def test_complete_of_older_run_keeps_chain_seq(self):
        mb = MultibufferManager(pool=SequencePool(4))
        s1, s2 = mb.allocate(), mb.allocate()
        mb.on_spec_dispatch(s1)
        mb.on_spec_dispatch(s2)
        mb.on_run_complete(spec_rec(1, [5], 10, seq=s1))
        assert mb.chain_seq == s2

    def test_chain_reset(self):
        mb = MultibufferManager(pool=SequencePool(2))
        s = mb.allocate()
        mb.on_spec_dispatch(s)
        mb.on_chain_reset()
        assert mb.chain_seq == 0


class TestCellBudget:
    def test_unbounded_always_fits(self):
        from repro.core.multibuffer import CellBudget

        b = CellBudget(None)
        assert b.fits(10**9)

    def test_commit_and_release_roundtrip(self):
        from repro.core.multibuffer import CellBudget

        b = CellBudget(100)
        assert b.fits(60)
        b.admit(1, 60)
        assert b.committed == 60
        assert b.fits(40) and not b.fits(41)
        b.admit(2, 40)
        assert not b.fits(1)
        b.release(1)
        assert b.committed == 40 and b.fits(60)

    def test_oversized_request_admits_alone(self):
        from repro.core.multibuffer import CellBudget

        b = CellBudget(100)
        assert b.fits(500)  # nothing active: surfaces the overflow
        b.admit(1, 500)
        assert not b.fits(1)  # but nothing else joins it

    def test_double_admit_rejected(self):
        from repro.core.multibuffer import CellBudget

        b = CellBudget(100)
        b.admit(1, 10)
        with pytest.raises(ValueError):
            b.admit(1, 10)

    def test_release_unknown_request_is_noop(self):
        from repro.core.multibuffer import CellBudget

        b = CellBudget(100)
        b.release(42)
        assert b.committed == 0
