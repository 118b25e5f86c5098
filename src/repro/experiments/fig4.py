"""Figures 4, 5 and 6: one grid of model pairs across node counts.

Three subfigures on cluster C, node counts {4, 8, 15, 32}:

- (a) Dolphin-70B with TinyLlama / Orca2 drafts,
- (b) Goliath-120B with XWin-7B / XWin-13B drafts,
- (c) Falcon-180B with Falcon-7B / Falcon-40B drafts,

each comparing iterative, speculative, and PipeInfer inference.  Figure 4
plots the grid's generation speed, Figure 5 its time to first token and
Figure 6 its inter-token latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.common import ExperimentScale, PAPER_NODE_COUNTS, run_cell
from repro.util.tables import format_series

#: Subfigure -> [(pair key, legend suffix), ...]
SUBFIGURES: Dict[str, List[Tuple[str, str]]] = {
    "4a: Dolphin-70B": [("dolphin+tinyllama", "TinyLlama"), ("dolphin+orca2", "Orca2")],
    "4b: Goliath-120B": [("goliath+xwin7b", "XWin-7B"), ("goliath+xwin13b", "XWin-13B")],
    "4c: Falcon-180B": [("falcon+7b", "Falcon-7B"), ("falcon+40b", "Falcon-40B")],
}

#: Figure -> (report metric, unit) read off the one grid.
METRICS = {
    "4": ("generation_speed", "tokens/s"),
    "5": ("ttft", "seconds"),
    "6": ("itl", "seconds"),
}


def run(
    metric: str = "generation_speed",
    scale: Optional[ExperimentScale] = None,
) -> Dict[str, Dict[str, List[float]]]:
    """Every subfigure's series of one metric; Figures 4, 5 and 6."""

    def sweep(pair_key: str, strategy: str) -> List[float]:
        return [
            getattr(run_cell(pair_key, strategy, "C", n, scale), metric)
            for n in PAPER_NODE_COUNTS
        ]

    figures: Dict[str, Dict[str, List[float]]] = {}
    for title, pairs in SUBFIGURES.items():
        series = {"Iter.": sweep(pairs[0][0], "iter")}
        for pair_key, label in pairs:
            series[f"Spec. ({label})"] = sweep(pair_key, "spec")
            series[f"Pipe. ({label})"] = sweep(pair_key, "pipe")
        figures[title] = series
    return figures


def main() -> None:
    for figure, (metric, unit) in METRICS.items():
        for title, series in run(metric).items():
            print(format_series("nodes", list(PAPER_NODE_COUNTS), series,
                                title=f"Figure {figure} ({title}) — {metric}",
                                unit=unit))
            print()


if __name__ == "__main__":
    main()
