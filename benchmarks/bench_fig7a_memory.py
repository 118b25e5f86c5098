"""Figure 7a: memory efficiency (speed per GB, log scale in the paper)."""

from benchmarks.conftest import run_once
from repro.experiments.common import PAPER_NODE_COUNTS as NODES
from repro.experiments.fig7 import run_7a
from repro.util.tables import format_series


def test_fig7a_memory_efficiency(benchmark, bench_scale):
    out = run_once(benchmark, lambda: run_7a(bench_scale))
    series, mem = out["speed_per_gb"], out["mean_node_memory"]
    print()
    print(format_series("nodes", list(NODES), series,
                        title="Figure 7a — memory efficiency",
                        unit="tokens/s per GB"))

    # PipeInfer achieves the best speed-to-memory ratio of the three.
    for i in range(1, len(NODES)):
        assert series["PipeInfer (Dolphin)"][i] > series["Speculative (Dolphin)"][i]
        assert series["PipeInfer (Dolphin)"][i] > series["Iter. (Dolphin)"][i]
    # Per-node memory shrinks as nodes are added; PipeInfer's equals the
    # speculative baseline's (both hold the draft model).
    assert mem["PipeInfer (Dolphin)"][0] > mem["PipeInfer (Dolphin)"][-1]
    for a, b in zip(mem["PipeInfer (Dolphin)"], mem["Speculative (Dolphin)"]):
        assert abs(a - b) / b < 0.3
    # Iterative stays leaner (no draft model).
    assert mem["Iter. (Dolphin)"][0] < mem["Speculative (Dolphin)"][0]
