"""Run tracking and invalidation detection (paper IV-D1)."""

import pytest

from repro.core.run_state import RunFIFO, RunKind, RunRecord

from oracles.run_state import find_token_mismatches


def spec(run_id, tokens, start):
    return RunRecord(run_id, RunKind.SPECULATIVE, list(tokens), start, seq_id=run_id)


def canonical(run_id, token, pos):
    return RunRecord(run_id, RunKind.CANONICAL, [token], pos, seq_id=0)


class TestRunRecord:
    def test_positions(self):
        r = spec(1, [5, 6, 7], 10)
        assert r.end_pos == 12
        assert r.covers(10) and r.covers(12) and not r.covers(13)
        assert r.token_at(11) == 6

    def test_token_at_out_of_range(self):
        with pytest.raises(IndexError):
            spec(1, [5], 10).token_at(11)

    def test_kinds(self):
        assert spec(1, [5], 0).is_speculative
        assert not canonical(1, 5, 0).is_speculative


class TestCoversTip:
    def test_covered_by_matching_run(self):
        f = RunFIFO()
        f.push(spec(1, [7, 8], 4))
        accepted = [0, 1, 2, 3, 7]  # tip pos 4, token 7
        assert f.covers_tip(accepted)

    def test_not_covered_when_token_differs(self):
        f = RunFIFO()
        f.push(spec(1, [9, 8], 4))
        assert not f.covers_tip([0, 1, 2, 3, 7])

    def test_cancelled_runs_do_not_cover(self):
        f = RunFIFO()
        r = spec(1, [7], 4)
        r.cancelled = True
        f.push(r)
        assert not f.covers_tip([0, 1, 2, 3, 7])

    def test_superfluous_runs_do_not_cover(self):
        f = RunFIFO()
        r = canonical(1, 7, 4)
        r.superfluous = True
        f.push(r)
        assert not f.covers_tip([0, 1, 2, 3, 7])


class TestInvalidation:
    def test_invalidate_at_and_after_divergence(self):
        f = RunFIFO()
        a = spec(1, [5, 6], 10)   # starts at divergence -> dead
        b = spec(2, [7, 8], 12)   # after divergence -> dead
        f.push(a)
        f.push(b)
        dead = f.invalidate_after(10)
        assert {r.run_id for r in dead} == {1, 2}
        assert a.cancelled and b.cancelled

    def test_runs_before_divergence_survive(self):
        f = RunFIFO()
        a = spec(1, [5, 6], 6)
        f.push(a)
        assert f.invalidate_after(10) == []
        assert not a.cancelled

    def test_canonical_never_invalidated(self):
        f = RunFIFO()
        c = canonical(1, 5, 12)
        f.push(c)
        assert f.invalidate_after(10) == []
        assert not c.cancelled

    def test_idempotent(self):
        f = RunFIFO()
        a = spec(1, [5], 11)
        f.push(a)
        assert len(f.invalidate_after(10)) == 1
        assert f.invalidate_after(10) == []


class TestSuperfluous:
    def test_run_behind_tip_marked(self):
        f = RunFIFO()
        c = canonical(1, 3, 2)
        f.push(c)
        accepted = [0, 1, 3, 4, 5]  # tip at pos 4 > end_pos 2
        hit = f.mark_superfluous(accepted)
        assert hit == [c] and c.superfluous

    def test_run_at_tip_not_superfluous(self):
        """A run ending exactly at the tip still predicts tip+1 (IV-D1:
        strictly 'less than' the accepted end position)."""
        f = RunFIFO()
        c = canonical(1, 5, 4)
        f.push(c)
        assert f.mark_superfluous([0, 1, 2, 3, 5]) == []


class TestPaperEquivalence:
    def test_token_mismatch_scan_agrees_with_divergence_rule(self):
        """The paper's literal token comparison and the divergence-position
        rule flag the same runs once the tip has passed them."""
        accepted = [0, 1, 2, 99, 98]  # chain diverged at position 3
        f = RunFIFO()
        dead = spec(1, [50, 51], 3)   # drafted old chain at 3..4
        alive = spec(2, [2], 2)       # matches accepted
        f.push(dead)
        f.push(alive)
        by_tokens = find_token_mismatches(f, accepted)
        assert by_tokens == [dead]
        by_div = f.invalidate_after(3)
        assert by_div == [dead]

    def test_live_listing(self):
        f = RunFIFO()
        a, b, c = spec(1, [1], 5), spec(2, [2], 6), canonical(3, 3, 7)
        b.cancelled = True
        c.superfluous = True
        for r in (a, b, c):
            f.push(r)
        assert f.live() == [a]

    def test_fifo_pop_order(self):
        f = RunFIFO()
        for r in (spec(1, [1], 0), spec(2, [2], 1)):
            f.push(r)
        assert f.pop().run_id == 1
        assert f.pop().run_id == 2
