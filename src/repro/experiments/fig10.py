"""Figure 10: prompt-to-prompt variance on the GPU cluster.

Senku-70B + TinyLlama across the four prompt classes.  Task domain shifts
the draft's alignment; the synchronous baseline's speed swings with it
while PipeInfer stays comparatively level (continuous speculation and
cancellation absorb acceptance-rate changes).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import ExperimentScale, run_cell
from repro.models.zoo import get_pair
from repro.util.tables import format_series
from repro.workloads.prompts import PROMPT_CLASSES

FIG10_PROMPTS = ("explain", "paper", "roleplay", "code")
PAIR = "senku+tinyllama"


def run(scale: Optional[ExperimentScale] = None) -> Dict[str, List[float]]:
    base = get_pair(PAIR).acceptance
    return {
        label: [
            run_cell(PAIR, strategy, "gpu", 4, scale, prompt_kind=kind,
                     acceptance=base + PROMPT_CLASSES[kind].acceptance_delta
                     ).generation_speed
            for kind in FIG10_PROMPTS
        ]
        for strategy, label in (("pipe", "PipeInfer"), ("spec", "Speculative"))
    }


def variance_ratio(series: Dict[str, List[float]]) -> Dict[str, float]:
    """Relative spread (max-min)/mean per strategy — the figure's message."""
    out = {}
    for name, values in series.items():
        mean = sum(values) / len(values)
        out[name] = (max(values) - min(values)) / mean if mean else 0.0
    return out


def main() -> None:
    series = run()
    labels = [PROMPT_CLASSES[k].description for k in FIG10_PROMPTS]
    print(format_series("prompt", labels, series,
                        title="Figure 10 — prompt-to-prompt variance "
                              "(Senku 70B + TinyLlama, 4 GPUs)",
                        unit="tokens/s"))
    for name, spread in variance_ratio(series).items():
        print(f"{name}: relative spread {spread:.2%}")


if __name__ == "__main__":
    main()
