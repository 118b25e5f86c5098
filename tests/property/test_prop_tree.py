"""Tree-attention equivalence over random trees."""

import numpy as np
from hypothesis import given, strategies as st

from repro.spec.tree import SpecTree, assign_tree_seqs

from oracles.tree import ancestors, mask_from_seqs, tree_attention_mask


@st.composite
def random_trees(draw):
    """Random trees built by attaching each node to -1 or an earlier node."""
    n = draw(st.integers(1, 10))
    tree = SpecTree(base_pos=draw(st.integers(0, 20)))
    for i in range(n):
        parent = draw(st.integers(-1, i - 1)) if i > 0 else -1
        tree.add(token=draw(st.integers(0, 50)), confidence=0.5, parent=parent)
    return tree


@given(random_trees())
def test_mask_equivalence(tree):
    """Sequence-id metadata induces exactly the ancestor mask."""
    leaves = tree.leaves()
    seqs = assign_tree_seqs(tree, list(range(1, len(leaves) + 1)))
    assert np.array_equal(mask_from_seqs(tree, seqs), tree_attention_mask(tree))


@given(random_trees())
def test_mask_is_reflexive_and_causal(tree):
    m = tree_attention_mask(tree)
    n = len(tree)
    assert all(m[i, i] for i in range(n))
    for i in range(n):
        for j in range(n):
            if m[i, j]:
                assert tree.nodes[j].pos <= tree.nodes[i].pos


@given(random_trees())
def test_sibling_branches_mutually_exclusive(tree):
    """No two different leaves' strict branch suffixes see each other."""
    m = tree_attention_mask(tree)
    for a in tree.leaves():
        for b in tree.leaves():
            if a != b and b not in ancestors(tree, a):
                assert not m[a, b]


@given(random_trees())
def test_every_node_on_some_branch(tree):
    seqs = assign_tree_seqs(tree, list(range(1, len(tree.leaves()) + 1)))
    assert all(s for s in seqs)


@given(random_trees())
def test_path_tokens_consistent(tree):
    for leaf in tree.leaves():
        path = tree.path_to(leaf)
        assert path[-1] == leaf
        # Depth-consecutive positions along the path.
        positions = [tree.nodes[i].pos for i in path]
        assert positions == list(range(tree.base_pos + 1, tree.base_pos + 1 + len(path)))
