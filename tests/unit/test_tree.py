"""Speculation tree structure."""

import pytest

from repro.spec.tree import SpecTree

from oracles.tree import ancestors, chain_tree, depth, is_chain, path_tokens


@pytest.fixture()
def branching_tree():
    """Root -> (a, b); a -> c; b -> (d, e); positions from base 10."""
    t = SpecTree(base_pos=10)
    a = t.add(1, 0.9)
    b = t.add(2, 0.5)
    c = t.add(3, 0.8, parent=a)
    d = t.add(4, 0.4, parent=b)
    e = t.add(5, 0.3, parent=b)
    return t, (a, b, c, d, e)


def test_positions_follow_depth(branching_tree):
    t, (a, b, c, d, e) = branching_tree
    assert t.nodes[a].pos == 11
    assert t.nodes[b].pos == 11
    assert t.nodes[c].pos == 12
    assert t.nodes[d].pos == 12


def test_roots_and_children(branching_tree):
    t, (a, b, c, d, e) = branching_tree
    assert t.roots() == [a, b]
    assert t.children(b) == [d, e]
    assert t.children(c) == []


def test_path_and_tokens(branching_tree):
    t, (a, b, c, d, e) = branching_tree
    assert t.path_to(e) == [b, e]
    assert path_tokens(t, e) == [2, 5]
    assert path_tokens(t, c) == [1, 3]


def test_leaves(branching_tree):
    t, (a, b, c, d, e) = branching_tree
    assert set(t.leaves()) == {c, d, e}


def test_depth(branching_tree):
    t, _ = branching_tree
    assert depth(t) == 2


def test_ancestors(branching_tree):
    t, (a, b, c, d, e) = branching_tree
    assert ancestors(t, c) == {a}
    assert ancestors(t, a) == set()


def test_is_chain(branching_tree):
    t, _ = branching_tree
    assert not is_chain(t)
    assert is_chain(chain_tree(0, [1, 2, 3], [0.9, 0.8, 0.7]))


def test_chain_tree_positions():
    t = chain_tree(5, [7, 8], [0.5, 0.6])
    assert [n.pos for n in t.nodes] == [6, 7]
    assert [n.token for n in t.nodes] == [7, 8]


def test_invalid_parent_rejected():
    t = SpecTree(0)
    with pytest.raises(IndexError):
        t.add(1, 0.5, parent=3)


def test_empty_tree():
    t = SpecTree(0)
    assert len(t) == 0
    assert t.leaves() == []
    assert depth(t) == 0
