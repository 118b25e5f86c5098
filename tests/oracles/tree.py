"""Speculation-tree oracles: ancestry, masks and chain builders.

The Speculative baseline keeps tree branches apart through KV-cache
sequence ids (:func:`repro.spec.tree.assign_tree_seqs`).  The tests hold
that assignment, :func:`repro.spec.verify.verify_tree` and the drafter's
cursor trees to these direct forms: the explicit (n x n) ancestor mask,
the mask the sequence metadata implies, and per-node ancestry walks.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np

from repro.spec.tree import SpecTree


def chain_tree(base_pos: int, tokens: Sequence[int], confidences: Sequence[float]) -> SpecTree:
    """A degenerate (single-path) tree holding ``tokens`` in order."""
    tree = SpecTree(base_pos)
    parent = -1
    for tok, conf in zip(tokens, confidences):
        parent = tree.add(tok, conf, parent)
    return tree


def ancestors(tree: SpecTree, index: int) -> Set[int]:
    """All strict ancestors of ``index``."""
    out: Set[int] = set()
    i = tree.nodes[index].parent
    while i >= 0:
        out.add(i)
        i = tree.nodes[i].parent
    return out


def depth(tree: SpecTree) -> int:
    """Length of the longest root-to-leaf path."""
    return max((len(tree.path_to(leaf)) for leaf in tree.leaves()), default=0)


def path_tokens(tree: SpecTree, index: int) -> List[int]:
    """Tokens along the root-to-``index`` path."""
    return [tree.nodes[i].token for i in tree.path_to(index)]


def is_chain(tree: SpecTree) -> bool:
    """True when the tree is a single path."""
    return all(len(tree.children(i)) <= 1 for i in range(-1, len(tree)))


def tree_attention_mask(tree: SpecTree) -> np.ndarray:
    """Boolean (n, n) mask: entry [i, j] true when i may attend to j."""
    n = len(tree)
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        mask[i, i] = True
        for j in ancestors(tree, i):
            mask[i, j] = True
    return mask


def branch_seq_of(tree: SpecTree, node_seqs: List[Set[int]], leaf: int) -> int:
    """The unique sequence id assigned to ``leaf``'s branch."""
    exclusive = set(node_seqs[leaf])
    for other in tree.leaves():
        if other != leaf:
            exclusive -= node_seqs[other]
    if len(exclusive) != 1:
        raise ValueError(f"leaf {leaf} does not own exactly one sequence id")
    return exclusive.pop()


def mask_from_seqs(tree: SpecTree, node_seqs: List[Set[int]]) -> np.ndarray:
    """Reconstruct the attention mask implied by sequence metadata.

    Node *i* (querying in its own branch sequences) sees node *j* iff they
    share a sequence and ``pos_j <= pos_i``.  Compared against
    :func:`tree_attention_mask`.
    """
    n = len(tree)
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            shared = node_seqs[i] & node_seqs[j]
            if shared and tree.nodes[j].pos <= tree.nodes[i].pos:
                # Visibility is evaluated from i's own branch: every branch
                # of i passing through j sees j.
                if node_seqs[i] <= node_seqs[j] or j == i or j in ancestors(tree, i):
                    mask[i, j] = True
    return mask
