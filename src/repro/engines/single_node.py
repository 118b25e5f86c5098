"""Normal single-node inference: the paper's first baseline.

The whole target model lives on one node; tokens are generated one at a
time with no communication.  This is the ground-truth strategy for output
equivalence and the memory-floor reference in the efficiency analysis.
"""

from __future__ import annotations

from typing import Generator, List

from repro.cluster.kernel import Delay
from repro.comm.payloads import DecodeMeta, TokenSlot
from repro.engines.base import BaseEngine, GenerationJob
from repro.models.sampler import argmax_token


class SingleNodeEngine(BaseEngine):
    """Iterative decoding on a single node."""

    name = "single-node"

    def target_ranks(self) -> List[int]:
        return [0]

    def partition(self):
        return [(0, self.backend.n_target_layers)]

    def _generate(self, job: GenerationJob) -> Generator:
        be = self.backend
        metrics = self.metrics
        node = self.cluster.nodes[0]
        ws = self._worker_states[0]
        chain = be.new_chain(job.prompt)
        accepted: List[int] = list(job.prompt)

        def decode(slots, states):
            """Local full-model pass; returns logits for want slots."""
            rid = self.new_run_id()
            meta = DecodeMeta(rid, slots, False, oracle_states=states)
            for chunk in be.stage_chunks(node, ws.layer_range, len(slots)):
                yield Delay(chunk)
                metrics.add_busy(0, chunk)
            hidden = be.compute_stage(ws, meta, None)
            n_want = sum(1 for s in slots if s.want_logits)
            t = be.logits_time(node, n_want)
            yield Delay(t)
            metrics.add_busy(0, t)
            return be.finalize_logits(ws, meta, hidden)

        # Prompt prefill.
        slots = [
            TokenSlot(t, i, (0,), want_logits=(i == len(job.prompt) - 1))
            for i, t in enumerate(job.prompt)
        ]
        states = be.slot_states(chain, 0, len(job.prompt))
        logits = yield from decode(slots, states)
        first = argmax_token(logits[0])
        accepted.append(first)
        chain.append(first)
        metrics.mark_prefill_end(self.net.kernel.now)

        while len(accepted) - len(job.prompt) < job.n_generate:
            tip_pos = len(accepted) - 1
            slots = [TokenSlot(accepted[tip_pos], tip_pos, (0,), True)]
            states = be.slot_states(chain, tip_pos, 1)
            logits = yield from decode(slots, states)
            nxt = argmax_token(logits[0])
            accepted.append(nxt)
            chain.append(nxt)
            self.metrics.record_tokens(self.net.kernel.now, 1)
            self.metrics.stats.completed += 1
            self.metrics.stats.dispatched += 1

        return accepted
