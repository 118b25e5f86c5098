"""Tree attention masks and sequence assignment."""

import numpy as np
import pytest

from repro.spec.tree import SpecTree, assign_tree_seqs

from oracles.tree import branch_seq_of, chain_tree, mask_from_seqs, tree_attention_mask


def make_tree():
    t = SpecTree(0)
    a = t.add(1, 0.9)
    b = t.add(2, 0.8, parent=a)
    c = t.add(3, 0.7, parent=a)
    d = t.add(4, 0.6, parent=b)
    return t, (a, b, c, d)


def test_mask_ancestor_visibility():
    t, (a, b, c, d) = make_tree()
    m = tree_attention_mask(t)
    assert m[d, b] and m[d, a] and m[d, d]
    assert not m[d, c]  # sibling branch invisible
    assert not m[b, c] and not m[c, b]
    assert not m[a, b]  # no looking forward


def test_chain_mask_lower_triangular():
    t = chain_tree(0, [1, 2, 3], [0.9] * 3)
    m = tree_attention_mask(t)
    assert np.array_equal(m, np.tril(np.ones((3, 3), dtype=bool)))


def test_seq_assignment_covers_paths():
    t, (a, b, c, d) = make_tree()
    seqs = assign_tree_seqs(t, [10, 11])
    leaves = t.leaves()
    # Each leaf owns exactly one sequence; shared ancestors carry both.
    assert seqs[a] == {10, 11}
    assert len(seqs[d] & seqs[c]) == 0


def test_branch_seq_of_unique():
    t, (a, b, c, d) = make_tree()
    seqs = assign_tree_seqs(t, [10, 11])
    owners = {branch_seq_of(t, seqs, leaf) for leaf in t.leaves()}
    assert owners == {10, 11}


def test_too_few_seq_ids_rejected():
    t, _ = make_tree()
    with pytest.raises(ValueError):
        assign_tree_seqs(t, [1])


def test_mask_equivalence_hand_tree():
    """Sequence metadata reproduces the explicit ancestor mask."""
    t, _ = make_tree()
    seqs = assign_tree_seqs(t, [1, 2])
    assert np.array_equal(mask_from_seqs(t, seqs), tree_attention_mask(t))


def test_mask_equivalence_deep_chain():
    t = chain_tree(3, [5, 6, 7, 8], [0.5] * 4)
    seqs = assign_tree_seqs(t, [4])
    assert np.array_equal(mask_from_seqs(t, seqs), tree_attention_mask(t))
