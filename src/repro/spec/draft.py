"""Drafting policies: the speculation knobs and tree drafting.

The speculation phase (paper Section II-A1) runs the draft model
iteratively, extending candidates until the top confidence falls below a
cutoff or the tree reaches its token budget.  :class:`DraftParams` holds
those knobs for every engine.  Tree drafting consumes the draft model
through the small :class:`Drafter` protocol so oracle models (performance
mode) and real tiny transformers (functional mode) are interchangeable.
Tree drafting walks drafter-owned *cursors* rather than token lists, so a
drafter whose state extends incrementally pays per tree edge, not per
context token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Protocol, Tuple

from repro.spec.tree import SpecTree


class Drafter(Protocol):
    """Anything that can propose ranked continuations from a cursor.

    :func:`draft_tree` proposes from *cursors* (``propose_alternatives``,
    ``advance_cursor``): opaque values the drafter owns, each standing for
    a token prefix.  The caller hands :func:`draft_tree` the cursor of the
    tree's root prefix, and the tree moves it one ``advance_cursor`` per
    edge.  A prefix-based drafter uses the token list itself as its cursor
    (advancing appends); the oracle backend uses the rolling hash state,
    so an edge costs one hash step and each tree node's cursor is the
    state its verification slot needs.  Engine backends
    (:class:`~repro.engines.backend.Backend`) are the tree drafters.
    PipeInfer's chains are drafted by the head through
    ``Backend.propose_multi``, not through this module.
    """

    def propose_alternatives(self, cursor: Any, n: int) -> List[Tuple[int, float]]:
        """Top-``n`` proposals at ``cursor``, best first (branching trees)."""
        ...

    def advance_cursor(self, cursor: Any, token: int) -> Any:
        """The cursor for ``cursor``'s prefix extended by ``token``."""
        ...


@dataclass(frozen=True)
class DraftParams:
    """Speculation-phase knobs.

    Attributes:
        max_tokens: tree token budget (the paper caps Dolphin trees at 4).
        cutoff: confidence threshold below which drafting halts.
        branch_width: candidates per expansion point (1 = chain).
        branch_margin: extra branches are added only when their confidence
            is within this margin of the best candidate.
    """

    max_tokens: int = 4
    cutoff: float = 0.30
    branch_width: int = 1
    branch_margin: float = 0.15

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not 0.0 <= self.cutoff <= 1.0:
            raise ValueError("cutoff must be within [0, 1]")
        if self.branch_width < 1:
            raise ValueError("branch_width must be >= 1")


def draft_tree(
    drafter: Drafter,
    root: Any,
    base_pos: int,
    params: DraftParams,
) -> SpecTree:
    """Draft a speculation tree continuing the prefix at cursor ``root``.

    Expands best-confidence-first: a frontier of (tree index, cursor)
    candidates is grown until the budget or cutoff halts it.  Each node
    keeps the cursor of its root-to-node path (:attr:`SpecNode.cursor`),
    advanced once from its parent's.  Secondary
    branches are opened only when their confidence is competitive
    (within ``branch_margin`` of the best) — a cheap stand-in for
    SpecInfer's learned expansion policies that keeps trees narrow when
    the draft is confident.
    """
    cutoff = params.cutoff
    tree = SpecTree(base_pos)
    # Frontier entries: (confidence, parent index, drafter cursor).
    frontier: List[Tuple[float, int, Any]] = [(1.0, -1, root)]
    while frontier and len(tree) < params.max_tokens:
        frontier.sort(key=lambda e: -e[0])
        _, parent, cursor = frontier.pop(0)
        proposals = drafter.propose_alternatives(cursor, params.branch_width)
        if not proposals:
            continue
        best_conf = proposals[0][1]
        if best_conf < cutoff:
            continue
        for rank, (token, conf) in enumerate(proposals):
            if len(tree) >= params.max_tokens:
                break
            if rank > 0 and conf < max(cutoff, best_conf - params.branch_margin):
                continue
            child = drafter.advance_cursor(cursor, token)
            node = tree.add(token, conf, parent, cursor=child)
            frontier.append((conf, node, child))
    return tree
