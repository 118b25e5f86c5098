"""Speculation trees and their KV-cache sequence assignment.

A tree of candidate continuations rooted at the current accepted tip.
Each node holds a token, the draft's confidence in it, and its parent;
root-to-node paths are candidate sequences.  The Speculative baseline
drafts and verifies such trees in one batch; :func:`assign_tree_seqs`
gives each root-to-leaf branch its own KV-cache sequence so sibling
branches never attend to each other (paper Section II-A2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Set


@dataclass
class SpecNode:
    """One speculated token.

    Attributes:
        token: proposed vocabulary id.
        confidence: draft model's probability for this proposal.
        parent: index of the parent node within the tree (-1 for roots,
            which continue directly from the accepted tip).
        pos: absolute sequence position this token would occupy.
        cursor: the drafter's cursor after this node's root-to-node path
            (see :class:`~repro.spec.draft.Drafter`); None for trees not
            built by a drafter.
    """

    token: int
    confidence: float
    parent: int
    pos: int
    cursor: Any = None


class SpecTree:
    """An append-only speculation tree with flat node storage."""

    def __init__(self, base_pos: int) -> None:
        """Create an empty tree continuing after absolute position ``base_pos``."""
        self.base_pos = base_pos
        self.nodes: List[SpecNode] = []

    def add(
        self, token: int, confidence: float, parent: int = -1, cursor: Any = None
    ) -> int:
        """Append a node; returns its index.

        Position is derived from the parent's depth: roots sit at
        ``base_pos + 1``.
        """
        if parent >= len(self.nodes):
            raise IndexError(f"parent {parent} does not exist")
        pos = self.base_pos + 1 if parent < 0 else self.nodes[parent].pos + 1
        self.nodes.append(SpecNode(token, confidence, parent, pos, cursor))
        return len(self.nodes) - 1

    def __len__(self) -> int:
        return len(self.nodes)

    def children(self, index: int) -> List[int]:
        """Indices of ``index``'s children (-1 for root-level nodes)."""
        return [i for i, n in enumerate(self.nodes) if n.parent == index]

    def roots(self) -> List[int]:
        return self.children(-1)

    def path_to(self, index: int) -> List[int]:
        """Node indices along the root-to-``index`` path, root first."""
        path: List[int] = []
        i = index
        while i >= 0:
            path.append(i)
            i = self.nodes[i].parent
        path.reverse()
        return path

    def leaves(self) -> List[int]:
        """Indices of nodes with no children."""
        has_child = {n.parent for n in self.nodes if n.parent >= 0}
        return [i for i in range(len(self.nodes)) if i not in has_child]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpecTree(base={self.base_pos}, n={len(self.nodes)}, leaves={len(self.leaves())})"


def assign_tree_seqs(tree: SpecTree, seq_ids: Sequence[int]) -> List[Set[int]]:
    """Map each tree node to the set of branch sequence ids covering it.

    Verifying a tree in one batch requires that sibling branches not
    attend to each other (paper Section II-A2).  Each root-to-leaf path
    becomes one KV-cache sequence, and a node's cell carries the set of
    sequences whose paths pass through it (the llama.cpp
    representation), so the causal visibility the cache derives from
    this metadata is ancestor-only attention.

    Args:
        tree: the speculation tree.
        seq_ids: one id per leaf, in :meth:`SpecTree.leaves` order.

    Returns:
        Per-node sets of sequence ids.  Each node belongs to the branches
        of every leaf beneath it; attending within one branch's sequence
        then reproduces ancestor-only visibility.

    Raises:
        ValueError: when fewer ids than leaves are supplied.
    """
    leaves = tree.leaves()
    if len(seq_ids) < len(leaves):
        raise ValueError(f"need {len(leaves)} seq ids, got {len(seq_ids)}")
    node_seqs: List[Set[int]] = [set() for _ in range(len(tree))]
    for leaf, seq in zip(leaves, seq_ids):
        for node in tree.path_to(leaf):
            node_seqs[node].add(seq)
    return node_seqs
