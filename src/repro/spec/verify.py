"""SpecInfer token verification (paper Sections II-A2 and IV-E).

The verification walk consumes target-model logits for a run of input
tokens and advances the accepted stream:

- logits at position *p* (computed from the token placed at *p*) predict
  the token at *p + 1*;
- walking from the accepted tip, each prediction either confirms the next
  drafted token (walk continues into that token's logits) or replaces it
  (walk stops — later logits were conditioned on a rejected token);
- the final prediction always contributes one token (the *bonus* token on
  full acceptance, the *correction* on divergence), so every completed run
  is productive.

The walk is greedy: a prediction confirms a drafted token exactly when
they are equal, which is what keeps every engine's output byte-identical
to the target model's (Section V-A).  :func:`verify_chain` walks a chain
run and :func:`verify_tree` descends a speculation tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from repro.models.sampler import LogitsLike, argmax_token
from repro.spec.tree import SpecTree


@dataclass
class VerifyOutcome:
    """Result of verifying one run's logits.

    Attributes:
        new_tokens: tokens newly appended to the accepted stream, in order.
        n_draft_accepted: how many of the run's *unverified* input tokens
            were confirmed (excludes the already-accepted prefix).
        diverged: True when a drafted token was rejected (the last entry of
            ``new_tokens`` is the correction).
    """

    new_tokens: List[int] = field(default_factory=list)
    n_draft_accepted: int = 0
    diverged: bool = False
    #: For tree verification: indices of the accepted path's nodes.
    matched_nodes: List[int] = field(default_factory=list)

    @property
    def n_draft_checked(self) -> int:
        """Draft tokens actually compared against the target.

        Accepted tokens plus the first rejection; drafts beyond a rejection
        were never examined.  ``accepted / checked`` is the per-token
        acceptance rate the paper reports (79%, 66%, ... — Section V-B).
        """
        return self.n_draft_accepted + (1 if self.diverged else 0)


def verify_chain(
    accepted_len: int,
    run_start_pos: int,
    run_tokens: Sequence[int],
    logits: Sequence[LogitsLike],
    sample: Callable[[LogitsLike], int] = argmax_token,
) -> VerifyOutcome:
    """Verify a chain run against its logits.

    Args:
        accepted_len: number of tokens accepted so far (positions
            ``0 .. accepted_len-1`` are known; the tip is the last).
        run_start_pos: absolute position of ``run_tokens[0]``.
        run_tokens: the run's input tokens (already-accepted prefix tokens
            plus drafted continuations).
        logits: one entry per input token; ``logits[i]`` predicts the token
            at ``run_start_pos + i + 1``.
        sample: greedy by default; any deterministic sampler works as long
            as every strategy uses the same one.

    Returns:
        The accepted-stream extension.  Empty when the run is entirely
        behind the tip (superfluous).

    Raises:
        ValueError: when the run starts beyond the accepted tip — the
        engine invariant (invalidation-before-verification) was violated.
    """
    if len(run_tokens) != len(logits):
        raise ValueError("need exactly one logits entry per input token")
    k = len(run_tokens)
    q = run_start_pos
    pos = accepted_len - 1  # index of the last accepted token
    if pos < q:
        # The run's first input token was never verified: its predecessor
        # run has not completed, which FIFO completion order forbids.
        raise ValueError(
            f"run starting at {q} verified with accepted tip at {pos}"
        )
    out = VerifyOutcome()
    while q <= pos <= q + k - 1:
        nxt = sample(logits[pos - q])
        out.new_tokens.append(nxt)
        nxt_index = pos + 1 - q
        if nxt_index <= k - 1:
            if run_tokens[nxt_index] != nxt:
                out.diverged = True
                break
            out.n_draft_accepted += 1
        pos += 1
    return out


def verify_tree(
    tip_logits: LogitsLike,
    tree: SpecTree,
    node_logits: Sequence[LogitsLike],
    sample: Callable[[LogitsLike], int] = argmax_token,
) -> VerifyOutcome:
    """Verify a speculation tree, descending along the matching branch.

    Args:
        tip_logits: logits at the accepted tip (predict the tree's root
            position).
        tree: the speculated tree.
        node_logits: logits per tree node, aligned with ``tree.nodes``.

    Returns:
        Accepted tokens along the matching path plus the final bonus or
        correction token.
    """
    if len(node_logits) != len(tree):
        raise ValueError("need logits for every tree node")
    out = VerifyOutcome()
    cur_logits = tip_logits
    candidates = tree.roots()
    while True:
        nxt = sample(cur_logits)
        out.new_tokens.append(nxt)
        match = next(
            (i for i in candidates if tree.nodes[i].token == nxt), None
        )
        if match is None:
            out.diverged = bool(candidates)
            return out
        out.n_draft_accepted += 1
        out.matched_nodes.append(match)
        cur_logits = node_logits[match]
        candidates = tree.children(match)
        if not candidates:
            # Full path accepted; the matched leaf's logits give the bonus.
            out.new_tokens.append(sample(cur_logits))
            return out
