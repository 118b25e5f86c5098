"""PipeInfer engine wiring.

Rank layout (paper Section IV-A / Figure 1): rank 0 is the head node —
draft model, sampling, verification, orchestration — and holds *no* target
layers ("one of the nodes is solely dedicated to speculation ... making
the target pipeline one node shorter").  Ranks 1..N-1 form the target
pipeline; the last rank returns logits straight to the head.
"""

from __future__ import annotations

from typing import List

from repro.engines.base import BaseEngine


class PipeInferEngine(BaseEngine):
    """Continuous asynchronous pipelined speculation."""

    name = "pipeinfer"
    synchronous = False

    def __init__(self, backend, network, config, metrics) -> None:
        super().__init__(backend, network, config, metrics)
        if self.cluster.size < 2:
            raise ValueError(
                "PipeInfer needs at least 2 nodes: a speculation/head node "
                "plus one target pipeline stage"
            )

    def target_ranks(self) -> List[int]:
        return list(range(1, self.cluster.size))

    def hosts_draft(self) -> bool:
        return True
