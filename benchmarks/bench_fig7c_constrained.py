"""Figure 7c: generation speed on the constrained clusters A/B."""

from benchmarks.conftest import run_once
from repro.experiments.fig7 import CONSTRAINED_NODE_COUNTS, run_7c
from repro.util.tables import format_series


def test_fig7c_constrained_clusters(benchmark, bench_scale):
    series = run_once(benchmark, lambda: run_7c(bench_scale))
    print()
    print(format_series("nodes", list(CONSTRAINED_NODE_COUNTS), series,
                        title="Figure 7c — constrained clusters", unit="tokens/s"))

    for family in ("Dolphin", "Goliath", "Falcon"):
        pipe = series[f"Pipe. ({family})"]
        spec = series[f"Spec. ({family})"]
        it = series[f"Iter. ({family})"]
        # PipeInfer shows its greatest advantage on slow interconnects.
        assert pipe[1] > spec[1]
        assert pipe[1] > it[1]
    # Paper: PipeInfer's edge over speculative grows for the poorly
    # aligned Goliath pair relative to the well-aligned Dolphin pair.
    gain_goliath = series["Pipe. (Goliath)"][1] / series["Spec. (Goliath)"][1]
    gain_dolphin = series["Pipe. (Dolphin)"][1] / series["Spec. (Dolphin)"][1]
    assert gain_goliath > gain_dolphin * 0.9
