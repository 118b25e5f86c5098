"""Pipeline-parallel iterative inference: the paper's distributed baseline.

Every node holds a contiguous slice of the target model; the head (rank 0)
embeds a single token, evaluates its own slice, forwards activations down
the chain, and blocks until the last rank returns logits.  One token per
full pipeline traversal — the design whose bubbles PipeInfer fills.
"""

from __future__ import annotations

from typing import Generator, List

from repro.cluster.kernel import Delay
from repro.comm.message import Tag
from repro.comm.payloads import Activations, DecodeMeta, TokenSlot
from repro.engines.base import BaseEngine, GenerationJob
from repro.models.sampler import argmax_token


class PipelinedHeadMixin:
    """Shared head-side plumbing for engines whose rank 0 is also stage 0."""

    def run_batch(self, slots, states, is_spec, pre_ops=()):
        """Dispatch one batch through the pipeline; returns its logits.

        The head evaluates its own stage first (applying any cache ops to
        its local shard), forwards downstream, then blocks on the returned
        logits — the synchronous pattern both baselines share.
        """
        from repro.engines.backend import apply_cache_op

        be = self.backend
        ranks = self.target_ranks()
        node = self.cluster.nodes[0]
        ws = self._worker_states[0]
        rid = self.new_run_id()
        meta = DecodeMeta(rid, list(slots), is_spec, oracle_states=states)
        meta.nbytes = be.meta_nbytes(meta.n_tokens)

        for op in pre_ops:
            apply_cache_op(ws.cache, op)
        if len(ranks) > 1 and pre_ops:
            self.send_cache_ops(ranks[1], list(pre_ops))

        for chunk in be.stage_chunks(node, ws.layer_range, meta.n_tokens):
            yield Delay(chunk)
            self.metrics.add_busy(0, chunk)
        hidden = be.compute_stage(ws, meta, None)
        self.metrics.stats.dispatched += 1

        if len(ranks) == 1:
            n_want = sum(1 for s in meta.slots if s.want_logits)
            t = be.logits_time(node, n_want)
            yield Delay(t)
            self.metrics.add_busy(0, t)
            self.metrics.stats.completed += 1
            return be.finalize_logits(ws, meta, hidden)

        act = Activations(rid, be.activation_nbytes(meta.n_tokens), hidden)
        self.send_decode(ranks[1], meta, act)
        msg = yield from self.ep().recv(ranks[-1], Tag.LOGITS)
        self.metrics.stats.completed += 1
        return msg.payload.logits

    def prefill(self, job: GenerationJob, chain):
        """Process the prompt; returns the first sampled token."""
        slots = [
            TokenSlot(t, i, (0,), want_logits=(i == len(job.prompt) - 1))
            for i, t in enumerate(job.prompt)
        ]
        states = self.backend.slot_states(chain, 0, len(job.prompt))
        logits = yield from self.run_batch(slots, states, is_spec=False)
        first = argmax_token(logits[0])
        self.metrics.mark_prefill_end(self.net.kernel.now)
        return first


class IterativeEngine(PipelinedHeadMixin, BaseEngine):
    """Naive pipeline-parallel decoding, one token per traversal."""

    name = "iterative"

    def _generate(self, job: GenerationJob) -> Generator:
        be = self.backend
        chain = be.new_chain(job.prompt)
        accepted: List[int] = list(job.prompt)

        first = yield from self.prefill(job, chain)
        accepted.append(first)
        chain.append(first)

        while len(accepted) - len(job.prompt) < job.n_generate:
            tip_pos = len(accepted) - 1
            slots = [TokenSlot(accepted[tip_pos], tip_pos, (0,), True)]
            states = be.slot_states(chain, tip_pos, 1)
            logits = yield from self.run_batch(slots, states, is_spec=False)
            nxt = argmax_token(logits[0])
            accepted.append(nxt)
            chain.append(nxt)
            self.metrics.record_tokens(self.net.kernel.now, 1)

        return accepted
