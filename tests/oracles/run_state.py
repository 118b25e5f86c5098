"""The paper's literal invalidation detection (Section IV-D1).

The head invalidates runs with the divergence-position rule of
:meth:`repro.core.run_state.RunFIFO.invalidate_after`.  The paper states
the rule as a token-wise comparison of every in-flight run against the
accepted stream; :func:`find_token_mismatches` is that comparison, and a
test holds the two to the same verdict once the tip has passed the runs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.run_state import RunFIFO, RunRecord


def find_token_mismatches(fifo: RunFIFO, accepted: Sequence[int]) -> List[RunRecord]:
    """Uncancelled runs whose tokens disagree with ``accepted`` somewhere."""
    tip = len(accepted) - 1
    hit = []
    for rec in fifo:
        if rec.cancelled:
            continue
        for pos in range(rec.start_pos, min(rec.end_pos, tip) + 1):
            if rec.token_at(pos) != accepted[pos]:
                hit.append(rec)
                break
    return hit
