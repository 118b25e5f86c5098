"""Figure 10: prompt-to-prompt variance (Senku 70B + TinyLlama, 4 GPUs)."""

from benchmarks.conftest import run_once
from repro.experiments.fig10 import FIG10_PROMPTS, run, variance_ratio
from repro.util.tables import format_series
from repro.workloads.prompts import PROMPT_CLASSES


def test_fig10_prompt_variance(benchmark, bench_scale):
    series = run_once(benchmark, lambda: run(bench_scale))
    labels = [PROMPT_CLASSES[k].description for k in FIG10_PROMPTS]
    print()
    print(format_series("prompt", labels, series,
                        title="Figure 10 — prompt variance", unit="tokens/s"))
    spread = variance_ratio(series)
    print({k: f"{v:.2%}" for k, v in spread.items()})

    # Both strategies track the task-induced alignment shifts; the paper's
    # stronger claim (PipeInfer markedly flatter than the erratic
    # baseline) reproduces only partially here because our prompt classes
    # enter solely through the acceptance rate.  This assert fails today
    # (the spread gap is recorded as open in ROADMAP.md).
    assert spread["PipeInfer"] < spread["Speculative"] * 1.35
    # PipeInfer stays within striking distance on every prompt class and
    # wins on the best-aligned one at this shallow 4-node pipeline.
    for p, s in zip(series["PipeInfer"], series["Speculative"]):
        assert p > s * 0.75
    # Ordering across prompts follows alignment for both strategies.
    assert series["PipeInfer"][3] == max(series["PipeInfer"])
    assert series["Speculative"][2] == min(series["Speculative"])
