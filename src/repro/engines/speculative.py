"""Pipeline-parallel speculative inference: the SpecInfer-style baseline.

Synchronous speculate-then-verify (paper Section III), served by the one
head loop (:func:`repro.serve.head.serving_head`) one request at a time.
Whenever the request's tip is uncovered and nothing is in flight, the
head drafts a speculation tree with the draft model — during which the
*entire target pipeline sits idle* — then pushes one verification run
through the pipeline and waits for its logits
(:func:`repro.core.head.start_tree_round`,
:func:`repro.core.head.dispatch_tree`).  Every target stage, rank 0's
included, is a :func:`~repro.engines.worker.pipeline_worker`; the head
holds no target layers.  Tree branches are isolated in KV sequence
partitions drawn from the request's pool; after verification the head
sends the first stage the cache ops that copy the accepted path to the
canonical sequence and drop the branch partitions, and every stage
applies them in order.

Head work is paid per new token, not per context token: the tree is
drafted from the backend's cursor for the chain (the oracle backend's
rolling state, advanced once per tree edge), the tree nodes' cursors
are their verification slots' oracle states, and the chain only ever
appends the newly accepted tokens.

This is the baseline whose time-to-first-token suffers from waiting on the
speculative tree, and whose throughput collapses when acceptance is low —
the behaviours Figures 4 and 5 quantify.
"""

from __future__ import annotations

from repro.engines.base import BaseEngine


class SpeculativeEngine(BaseEngine):
    """Synchronous speculative decoding over the pipeline."""

    name = "speculative"

    def __init__(self, backend, network, config, metrics) -> None:
        super().__init__(backend, network, config, metrics)
        # One partition is the request's canonical sequence; each leaf of
        # a tree needs its own.  A chain tree has one leaf; a branching
        # tree at most one per drafted token.
        draft = config.draft
        max_leaves = 1 if draft.branch_width == 1 else draft.max_tokens
        if max_leaves > config.n_seq_partitions - 1:
            raise ValueError(
                f"a speculation tree may need {max_leaves} branch partitions "
                f"but n_seq_partitions={config.n_seq_partitions} leaves "
                f"{config.n_seq_partitions - 1} beside the canonical one"
            )

    def hosts_draft(self) -> bool:
        return True
