"""Pipeline-parallel iterative inference: the paper's distributed baseline.

Every node holds a contiguous slice of the target model and runs it in a
:func:`~repro.engines.worker.pipeline_worker`, rank 0 included.  The head
holds no layers: it hands a single token to the first stage (over the
zero-cost loopback link, since it shares rank 0), and blocks until the
last rank returns logits.  One token per full pipeline traversal — the
design whose bubbles PipeInfer fills.
"""

from __future__ import annotations

from typing import Generator, List

from repro.comm.message import Tag
from repro.comm.payloads import Activations, DecodeMeta, TokenSlot
from repro.engines.base import BaseEngine, GenerationJob
from repro.metrics.collectors import MetricsCollector
from repro.models.sampler import argmax_token


class PipelinedHeadMixin:
    """Shared head-side plumbing for the synchronous baselines.

    The head evaluates no stage: every target stage is a pipeline worker,
    and the head talks to the first one the way PipeInfer's head does.
    """

    def run_batch(self, metrics: MetricsCollector, slots, states, is_spec, pre_ops=()):
        """Dispatch one batch through the pipeline; returns its logits.

        The batch's cache ops and its decode transaction go to the first
        stage, whose worker takes them into one fusion window; the head
        then blocks on the returned logits — the synchronous pattern both
        baselines share.
        """
        ranks = self.target_ranks()
        rid = self.new_run_id()
        meta = DecodeMeta(rid, list(slots), is_spec, oracle_states=states)
        act = Activations(rid, self.backend.activation_nbytes(meta.n_tokens), None)
        self.send_cache_ops(ranks[0], pre_ops)
        self.send_decode(ranks[0], meta, act)
        metrics.stats.dispatched += 1
        msg = yield from self.ep().recv(ranks[-1], Tag.LOGITS)
        metrics.stats.completed += 1
        return msg.payload.logits

    def prefill(self, job: GenerationJob, chain, metrics: MetricsCollector):
        """Process the prompt; returns the first sampled token."""
        slots = [
            TokenSlot(t, i, (0,), want_logits=(i == len(job.prompt) - 1))
            for i, t in enumerate(job.prompt)
        ]
        states = self.backend.slot_states(chain, 0, len(job.prompt))
        logits = yield from self.run_batch(metrics, slots, states, is_spec=False)
        first = argmax_token(logits[0])
        metrics.mark_prefill_end(self.net.kernel.now)
        return first


class IterativeEngine(PipelinedHeadMixin, BaseEngine):
    """Naive pipeline-parallel decoding, one token per traversal."""

    name = "iterative"

    def _generate(self, job: GenerationJob, metrics: MetricsCollector) -> Generator:
        be = self.backend
        chain = be.new_chain(job.prompt)
        accepted: List[int] = list(job.prompt)

        first = yield from self.prefill(job, chain, metrics)
        accepted.append(first)
        chain.append(first)

        while len(accepted) - len(job.prompt) < job.n_generate:
            tip_pos = len(accepted) - 1
            slots = [TokenSlot(accepted[tip_pos], tip_pos, (0,), True)]
            states = be.slot_states(chain, tip_pos, 1)
            logits = yield from self.run_batch(metrics, slots, states, is_spec=False)
            nxt = argmax_token(logits[0])
            accepted.append(nxt)
            chain.append(nxt)
            metrics.record_tokens(self.net.kernel.now, 1)

        return accepted
