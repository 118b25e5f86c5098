"""Pipeline-parallel speculative inference: the SpecInfer-style baseline.

Synchronous speculate-then-verify (paper Section III): the head drafts a
speculation tree with the local draft model — during which the *entire
target pipeline sits idle* — then pushes one verification batch through
the pipeline and blocks on the logits.  Every target stage, rank 0's
included, is a :func:`~repro.engines.worker.pipeline_worker`; the head
holds no target layers.  Tree branches are isolated with KV sequence
ids; after verification the head sends the first stage the cache ops
that copy the accepted path to the canonical sequence and drop the
branch sequences, and every stage applies them in order.

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

from typing import Generator, List

from repro.cluster.kernel import Delay
from repro.comm.payloads import CacheOp, CacheOpKind, TokenSlot
from repro.engines.backend import SEQ_END
from repro.engines.base import BaseEngine, GenerationJob
from repro.engines.iterative import PipelinedHeadMixin
from repro.metrics.collectors import MetricsCollector
from repro.models.sampler import argmax_token
from repro.spec.draft import draft_tree
from repro.spec.tree_attention import assign_tree_seqs
from repro.spec.verify import verify_tree


class SpeculativeEngine(PipelinedHeadMixin, BaseEngine):
    """Synchronous speculative decoding over the pipeline."""

    name = "speculative"

    def hosts_draft(self) -> bool:
        return True

    def _generate(self, job: GenerationJob, metrics: MetricsCollector) -> Generator:
        be = self.backend
        cfg = self.config
        chain = be.new_chain(job.prompt)
        accepted: List[int] = list(job.prompt)

        first = yield from self.prefill(job, chain, metrics)
        accepted.append(first)
        chain.append(first)

        # The baseline distributes *both* models across the ranks
        # (llama.cpp MPI), so every autoregressive draft token traverses
        # the whole pipeline — per-node decode overhead plus a hop each.
        ranks = self.target_ranks()
        nodes = [self.cluster.nodes[r] for r in ranks]
        per_draft_token = be.draft_pipeline_token_time(
            nodes, self.cluster.link_spec.latency
        )

        while len(accepted) - len(job.prompt) < job.n_generate:
            tip_pos = len(accepted) - 1
            # ---- speculation phase: the pipeline is tied up drafting.
            tree = draft_tree(be, be.draft_cursor(chain), tip_pos, cfg.draft)
            draft_cost = max(len(tree), 1) * per_draft_token
            yield Delay(draft_cost)
            self.metrics.add_busy(0, draft_cost / max(len(nodes), 1))

            if len(tree) == 0:
                # Draft had no confident proposal: fall back to one
                # iterative step so progress is guaranteed.
                slots = [TokenSlot(accepted[tip_pos], tip_pos, (0,), True)]
                states = be.slot_states(chain, tip_pos, 1)
                logits = yield from self.run_batch(metrics, slots, states, is_spec=False)
                nxt = argmax_token(logits[0])
                accepted.append(nxt)
                chain.reconcile(accepted, tip_pos + 1)
                metrics.record_tokens(self.net.kernel.now, 1)
                continue

            # ---- verification phase: tip token + tree in one batch.
            leaves = tree.leaves()
            branch_seqs = list(range(1, len(leaves) + 1))
            node_seqs = assign_tree_seqs(tree, branch_seqs)
            # The tip token's fresh cell must be visible to every branch:
            # it is written during this batch, after the branch cp ops ran,
            # so it carries all branch ids directly (llama.cpp assigns the
            # shared prefix token to every sequence the same way).
            slots = [
                TokenSlot(accepted[tip_pos], tip_pos, (0, *branch_seqs), True)
            ]
            for i, node in enumerate(tree.nodes):
                seqs = tuple(sorted(node_seqs[i]))
                slots.append(TokenSlot(node.token, node.pos, seqs, True))
            # The tip's state comes from the chain; an oracle tree node's
            # cursor is already the rolling state after its path.
            states = be.slot_states(chain, tip_pos, 1)
            if states is not None:
                states.extend(node.cursor for node in tree.nodes)
            pre_ops = [
                CacheOp(CacheOpKind.SEQ_CP, 0, b, 0, tip_pos + 1)
                for b in branch_seqs
            ]
            logits = yield from self.run_batch(metrics, slots, states, True, pre_ops=pre_ops)
            metrics.stats.speculative += 1
            metrics.stats.draft_tokens_proposed += len(tree)

            outcome = verify_tree(logits[0], tree, logits[1:])
            metrics.stats.draft_tokens_accepted += outcome.n_draft_accepted
            metrics.stats.draft_tokens_checked += outcome.n_draft_checked

            # ---- cache maintenance: keep the accepted path, drop branches.
            post_ops: List[CacheOp] = []
            if outcome.matched_nodes:
                path_seq = min(node_seqs[outcome.matched_nodes[-1]])
                lo = tree.nodes[outcome.matched_nodes[0]].pos
                hi = tree.nodes[outcome.matched_nodes[-1]].pos + 1
                post_ops.append(CacheOp(CacheOpKind.SEQ_CP, path_seq, 0, lo, hi))
            post_ops.extend(
                CacheOp(CacheOpKind.SEQ_RM, b, b, 0, SEQ_END)
                for b in branch_seqs
            )
            self.send_cache_ops(ranks[0], post_ops)

            accepted.extend(outcome.new_tokens)
            chain.reconcile(accepted, tip_pos + 1)
            metrics.record_tokens(self.net.kernel.now, len(outcome.new_tokens))

        return accepted
