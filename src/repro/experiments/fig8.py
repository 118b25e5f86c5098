"""Figure 8: ablation studies on an 8-node configuration of cluster C.

Three model pairs (TinyLlama, XWin-7B, Falcon-7B drafts) under:

- full PipeInfer,
- early inference cancellation ablated (signals never sent; invalid runs
  evaluate in full),
- continuous speculation ablated with the speculative batch size doubled
  as a counter-balance (single larger asynchronous run at a time).

The paper additionally ablated KV multibuffering and asynchronous
speculation, both of which produced *incorrect output* rather than a
performance point; the correctness suite demonstrates the same (disabling
partition isolation breaks output equivalence), so no numbers exist for
them here either.

:func:`run_sweeps` adds three extension sweeps on the same 8 nodes: the
micro-batch size (Section IV-B1 uses 1-4), the reactive cutoff's
recovery/decay factors (IV-B2) and the draft's alignment (the
resilience claim of Section I).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engines.base import EngineConfig
from repro.experiments.common import ExperimentScale, run_cell
from repro.util.tables import format_series

ABLATION_PAIRS = {
    "Dolphin": "dolphin+tinyllama",
    "Goliath": "goliath+xwin7b",
    "Falcon": "falcon+7b",
}

VARIANTS = {
    "PipeInfer": EngineConfig(),
    "No cancellation": EngineConfig().ablated(enable_cancellation=False),
    "No cont. spec.": EngineConfig().ablated(
        enable_continuous=False, microbatch_size=8
    ),
}


def run(scale: Optional[ExperimentScale] = None) -> Dict[str, Dict[str, List[float]]]:
    """metric -> series; series maps "family: variant" to a single value."""
    out: Dict[str, Dict[str, List[float]]] = {
        "speed": {}, "ttft": {}, "itl": {}
    }
    for family, pair_key in ABLATION_PAIRS.items():
        for variant, config in VARIANTS.items():
            r = run_cell(pair_key, "pipe", "C", 8, scale, config=config)
            key = f"{family}: {variant}"
            out["speed"][key] = [r.generation_speed]
            out["ttft"][key] = [r.ttft]
            out["itl"][key] = [r.itl]
    return out


def run_sweeps(scale: Optional[ExperimentScale] = None) -> Dict[str, Dict[str, List[float]]]:
    """sweep -> series: micro-batch size (Dolphin, PipeInfer speed), cutoff
    factors (Goliath, PipeInfer speed and dispatch efficiency) and draft
    alignment (Dolphin; iterative, speculative and PipeInfer speed)."""

    def cell(pair_key="dolphin+tinyllama", strategy="pipe", **changes):
        return run_cell(pair_key, strategy, "C", 8, scale, **changes)

    cutoff = {}
    for rec, dec in ((0.0, 0.0), (0.06, 0.03), (0.2, 0.1)):
        cfg = EngineConfig().ablated(cutoff_recovery=rec, cutoff_decay=dec)
        r = cell("goliath+xwin7b", config=cfg)
        cutoff[f"recovery={rec}/decay={dec}"] = [r.generation_speed, r.stats.dispatch_efficiency]
    return {
        "microbatch": {
            f"microbatch={mb}": [
                cell(config=EngineConfig().ablated(microbatch_size=mb)).generation_speed
            ]
            for mb in (1, 2, 4, 8)
        },
        "cutoff": cutoff,
        "alignment": {
            f"acceptance={acc}": [
                cell(strategy=s, acceptance=acc).generation_speed
                for s in ("iter", "spec", "pipe")
            ]
            for acc in (0.15, 0.5, 0.85)
        },
    }


def main() -> None:
    results = run()
    for metric, unit in (("speed", "tokens/s"), ("ttft", "s"), ("itl", "s")):
        print(format_series("value", [unit], results[metric],
                            title=f"Figure 8 — {metric} (8 nodes)"))
        print()


if __name__ == "__main__":
    main()
