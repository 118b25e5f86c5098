"""Speculative decoding machinery.

- :mod:`repro.spec.tree` — speculation trees (token, confidence, parent)
  and the sequence-id assignment keeping tree branches mutually exclusive
  in the KV cache (Section II-A2);
- :mod:`repro.spec.draft` — tree drafting halted by a confidence cutoff
  (paper Section II-A1);
- :mod:`repro.spec.verify` — the greedy SpecInfer token-verification walk
  used by both the speculative baseline and PipeInfer (Section IV-E).
"""

from repro.spec.tree import SpecNode, SpecTree, assign_tree_seqs
from repro.spec.draft import DraftParams, draft_tree
from repro.spec.verify import VerifyOutcome, verify_chain, verify_tree

__all__ = [
    "SpecNode",
    "SpecTree",
    "DraftParams",
    "draft_tree",
    "VerifyOutcome",
    "verify_chain",
    "verify_tree",
    "assign_tree_seqs",
]
