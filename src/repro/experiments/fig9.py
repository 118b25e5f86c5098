"""Figure 9: token generation speed on the 4-GPU cluster (Table IV).

Seven model pairs, PipeInfer vs speculative inference.  The paper found
PipeInfer ahead in all but one case — the Llama-3-based Dolphin 2.9 pair,
whose unusually well-aligned 8B draft makes synchronous speculation
competitive on the short 4-node pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import ExperimentScale, run_cell
from repro.models.zoo import GPU_PAIRS
from repro.util.tables import format_series


def run(scale: Optional[ExperimentScale] = None) -> Dict[str, List[float]]:
    return {
        label: [run_cell(key, strategy, "gpu", 4, scale).generation_speed
                for key in GPU_PAIRS]
        for strategy, label in (("pipe", "PipeInfer"), ("spec", "Speculative"))
    }


def main() -> None:
    labels = [GPU_PAIRS[k].label for k in GPU_PAIRS]
    print(format_series("pair", labels, run(),
                        title="Figure 9 — 4-GPU cluster generation speed",
                        unit="tokens/s"))


if __name__ == "__main__":
    main()
