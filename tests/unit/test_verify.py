"""SpecInfer verification walks."""

import numpy as np
import pytest

from repro.models.oracle import OracleLogits
from repro.spec.tree import SpecTree
from repro.spec.verify import verify_chain, verify_tree

from oracles.tree import chain_tree


def L(token):
    """Oracle logits whose argmax is ``token``."""
    return OracleLogits(top_token=token, top_prob=0.9)


class TestChainWalk:
    def test_full_acceptance_with_bonus(self):
        # Accepted through pos 5 (len 6); the run's first input token (at
        # pos 5) is the already-accepted tip, the rest are drafts.
        out = verify_chain(
            accepted_len=6,
            run_start_pos=5,
            run_tokens=[10, 11, 12],
            logits=[L(11), L(12), L(99)],
        )
        assert out.new_tokens == [11, 12, 99]
        assert out.n_draft_accepted == 2
        assert not out.diverged
        assert out.n_draft_checked == 2

    def test_divergence_stops_walk(self):
        out = verify_chain(6, 5, [10, 11, 12], [L(42), L(7), L(8)])
        # Prediction at pos 6 is 42, run's token there is 11 -> reject.
        assert out.new_tokens == [42]
        assert out.diverged
        assert out.n_draft_accepted == 0
        assert out.n_draft_checked == 1

    def test_mid_chain_divergence(self):
        out = verify_chain(6, 5, [10, 11, 12, 13], [L(11), L(12), L(77), L(1)])
        assert out.new_tokens == [11, 12, 77]
        assert out.n_draft_accepted == 2
        assert out.diverged

    def test_canonical_single_token(self):
        """A canonical run: one already-accepted token, one prediction."""
        out = verify_chain(6, 5, [10], [L(33)])
        assert out.new_tokens == [33]
        assert out.n_draft_accepted == 0
        assert not out.diverged

    def test_superfluous_run_yields_nothing(self):
        # Run entirely behind the tip: accepted through pos 9, run at 5..6.
        out = verify_chain(10, 5, [1, 2], [L(2), L(3)])
        assert out.new_tokens == []

    def test_overlap_consumes_only_new_positions(self):
        # Accepted through pos 6 (len 7); run covers 5..8.
        out = verify_chain(7, 5, [1, 2, 3, 4], [L(2), L(3), L(4), L(50)])
        # Walk starts at pos 6, confirming tokens at 7, 8 and the bonus.
        assert out.new_tokens == [3, 4, 50]
        assert out.n_draft_accepted == 2

    def test_run_beyond_tip_rejected(self):
        with pytest.raises(ValueError):
            verify_chain(5, 7, [1], [L(2)])

    def test_logits_count_mismatch(self):
        with pytest.raises(ValueError):
            verify_chain(5, 5, [1, 2], [L(1)])

    def test_dense_logits_work(self):
        dense = np.zeros(16)
        dense[9] = 5.0
        out = verify_chain(4, 3, [4], [dense])
        assert out.new_tokens == [9]


class TestTreeWalk:
    def test_descends_matching_branch(self):
        t = SpecTree(0)
        a = t.add(1, 0.9)
        b = t.add(2, 0.9)
        c = t.add(3, 0.9, parent=b)
        logits = [L(99), L(3), L(55)]
        out = verify_tree(L(2), t, logits)
        # tip predicts 2 -> matches b; b's logits predict 3 -> matches c;
        # c is a leaf -> bonus from c's logits.
        assert out.new_tokens == [2, 3, 55]
        assert out.n_draft_accepted == 2
        assert out.matched_nodes == [b, c]
        assert not out.diverged

    def test_no_match_is_correction(self):
        t = chain_tree(0, [5], [0.9])
        out = verify_tree(L(7), t, [L(1)])
        assert out.new_tokens == [7]
        assert out.diverged
        assert out.matched_nodes == []

    def test_empty_tree_is_plain_sample(self):
        t = SpecTree(0)
        out = verify_tree(L(4), t, [])
        assert out.new_tokens == [4]
        assert not out.diverged  # nothing was proposed, nothing rejected

    def test_logits_alignment_checked(self):
        t = chain_tree(0, [5], [0.9])
        with pytest.raises(ValueError):
            verify_tree(L(5), t, [])

    def test_checked_counts(self):
        t = chain_tree(0, [5, 6], [0.9, 0.9])
        out = verify_tree(L(5), t, [L(9), L(1)])
        assert out.n_draft_accepted == 1
        assert out.n_draft_checked == 2  # 5 accepted, 6 examined-and-rejected
