"""Figure 7: resource and constrained-hardware analysis.

- 7a: memory efficiency (tokens/s per GB of mean per-node memory,
  log-scale in the paper) for the three representative pairs on cluster C;
- 7b: TTFT for the three inference methods on cluster A (GigE);
- 7c: generation speed on the constrained clusters A/B at 4/8/13 nodes —
  the 13-node point brings in the heterogeneous Optiplexes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import ExperimentScale, PAPER_NODE_COUNTS, run_cell
from repro.util.tables import format_series

#: The representative pair per target family (small draft, as in Fig. 7c).
FAMILY_PAIRS = {
    "Dolphin": "dolphin+tinyllama",
    "Goliath": "goliath+xwin7b",
    "Falcon": "falcon+7b",
}

#: Figure 7c's node counts: cluster A up to 8, cluster B's 13 beyond.
CONSTRAINED_NODE_COUNTS = (4, 8, 13)


def run_7a(scale: Optional[ExperimentScale] = None) -> Dict[str, Dict[str, List[float]]]:
    """Speed per GB and mean per-node memory, per strategy and family,
    across cluster C sizes: metric -> series."""
    out: Dict[str, Dict[str, List[float]]] = {"speed_per_gb": {}, "mean_node_memory": {}}
    for family, pair_key in FAMILY_PAIRS.items():
        for strategy, label in (("iter", "Iter."), ("spec", "Speculative"),
                                ("pipe", "PipeInfer")):
            cells = [run_cell(pair_key, strategy, "C", n, scale) for n in PAPER_NODE_COUNTS]
            out["speed_per_gb"][f"{label} ({family})"] = [r.speed_per_gb() for r in cells]
            out["mean_node_memory"][f"{label} ({family})"] = [
                r.mean_node_memory for r in cells
            ]
    return out


def run_7b(scale: Optional[ExperimentScale] = None) -> Dict[str, List[float]]:
    """TTFT on cluster A (8 nodes) per family and strategy."""
    series: Dict[str, List[float]] = {"Iterative": [], "Speculative": [], "PipeInfer": []}
    for pair_key in FAMILY_PAIRS.values():
        for strategy, label in (("iter", "Iterative"), ("spec", "Speculative"),
                                ("pipe", "PipeInfer")):
            series[label].append(run_cell(pair_key, strategy, "A", 8, scale).ttft)
    return series


def run_7c(scale: Optional[ExperimentScale] = None) -> Dict[str, List[float]]:
    """Generation speed on the constrained clusters at 4/8/13 nodes.

    4- and 8-node points use cluster A's homogeneous Xeons; the 13-node
    point extends into cluster B's slower Optiplexes.
    """
    series: Dict[str, List[float]] = {}
    for family, pair_key in FAMILY_PAIRS.items():
        for strategy, label in (("iter", "Iter."), ("spec", "Spec."), ("pipe", "Pipe.")):
            series[f"{label} ({family})"] = [
                run_cell(pair_key, strategy, "A" if n <= 8 else "B", n,
                         scale).generation_speed
                for n in CONSTRAINED_NODE_COUNTS
            ]
    return series


def main() -> None:
    print(format_series("nodes", list(PAPER_NODE_COUNTS), run_7a()["speed_per_gb"],
                        title="Figure 7a — memory efficiency", unit="tokens/s per GB"))
    print()
    print(format_series("model", list(FAMILY_PAIRS), run_7b(),
                        title="Figure 7b — TTFT on cluster A", unit="seconds"))
    print()
    print(format_series("nodes", list(CONSTRAINED_NODE_COUNTS), run_7c(),
                        title="Figure 7c — constrained clusters", unit="tokens/s"))


if __name__ == "__main__":
    main()
