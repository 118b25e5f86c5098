"""Token sampling.

The paper uses greedy sampling throughout so that all inference strategies
produce byte-identical output (Section V-A), so every engine samples with
:func:`argmax_token`.  The confidence helpers feed the drafter's cutoff.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.models.oracle import OracleLogits

LogitsLike = Union[np.ndarray, OracleLogits]


def argmax_token(logits: LogitsLike) -> int:
    """The greedy token for dense logits or an oracle's sparse logits."""
    if isinstance(logits, OracleLogits):
        return logits.top_token
    return int(np.argmax(logits))


def top_prob(logits: LogitsLike) -> float:
    """Probability of the greedy token under softmax."""
    if isinstance(logits, OracleLogits):
        return logits.top_prob
    shifted = logits - logits.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    return float(probs.max())


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Full softmax distribution for dense logits."""
    shifted = logits - logits.max()
    probs = np.exp(shifted)
    return probs / probs.sum()


def batched_top1(logits: np.ndarray):
    """Greedy token and its softmax probability for every row at once.

    The draft plane's batched rounds only ever need the argmax token and
    its confidence, so materializing a full per-row softmax distribution
    (``softmax_probs`` row by row) wastes a vocab-sized normalize per
    chain.  One fused pass computes both: the argmax's shifted logit is
    exactly 0, so its probability is ``1 / sum(exp(row - row_max))`` —
    the same stable-softmax arithmetic as the per-row reference, which
    the draft-batch property suite pins to <= 1e-10.

    Returns ``(tokens, confs)`` int/float 1-D arrays, one entry per row.
    """
    mat = np.asarray(logits)
    tokens = np.argmax(mat, axis=1)
    shifted = mat - mat.max(axis=1, keepdims=True)
    confs = 1.0 / np.exp(shifted).sum(axis=1)
    return tokens, confs
