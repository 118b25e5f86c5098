"""Speculation tree data structure.

A tree of candidate continuations rooted at the current accepted tip.
Each node holds a token, the draft's confidence in it, and its parent;
root-to-node paths are candidate sequences.  A greedy single-path draft
produces a degenerate tree (a chain) — the common case in the engines —
while the SpecInfer-style baseline can verify branching trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence


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

    def path_tokens(self, index: int) -> List[int]:
        """Tokens along the root-to-``index`` path."""
        return [self.nodes[i].token for i in self.path_to(index)]

    def leaves(self) -> List[int]:
        """Indices of nodes with no children."""
        has_child = {n.parent for n in self.nodes if n.parent >= 0}
        return [i for i in range(len(self.nodes)) if i not in has_child]

    def depth(self) -> int:
        """Length of the longest root-to-leaf path."""
        best = 0
        for leaf in self.leaves():
            best = max(best, len(self.path_to(leaf)))
        return best

    def ancestors(self, index: int) -> set[int]:
        """All strict ancestors of ``index``."""
        out: set[int] = set()
        i = self.nodes[index].parent
        while i >= 0:
            out.add(i)
            i = self.nodes[i].parent
        return out

    def is_chain(self) -> bool:
        """True when the tree is a single path."""
        return all(len(self.children(i)) <= 1 for i in range(-1, len(self.nodes)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpecTree(base={self.base_pos}, n={len(self.nodes)}, leaves={len(self.leaves())})"


def chain_tree(base_pos: int, tokens: Sequence[int], confidences: Sequence[float]) -> SpecTree:
    """Build a degenerate (single-path) tree from a drafted chain."""
    tree = SpecTree(base_pos)
    parent = -1
    for tok, conf in zip(tokens, confidences):
        parent = tree.add(tok, conf, parent)
    return tree
