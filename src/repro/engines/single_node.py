"""Normal single-node inference: the paper's first baseline.

The whole target model lives on one node; tokens are generated one at a
time with no network traffic.  This is the ground-truth strategy for
output equivalence and the memory-floor reference in the efficiency
analysis.  It is :class:`IterativeEngine` on a one-rank pipeline: rank
0's worker holds every layer and talks to the head over loopback, and
the one serving head drives it under Iterative's policy.
"""

from __future__ import annotations

from typing import List

from repro.engines.iterative import IterativeEngine


class SingleNodeEngine(IterativeEngine):
    """Iterative decoding on a single node."""

    name = "single-node"

    def target_ranks(self) -> List[int]:
        return [0]

    def partition(self):
        return [(0, self.backend.n_target_layers)]
