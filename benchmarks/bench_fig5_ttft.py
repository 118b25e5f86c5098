"""Figure 5: time-to-first-token latencies across node counts (Fig. 4's grid)."""

from benchmarks.conftest import run_once
from repro.experiments.common import PAPER_NODE_COUNTS as NODES
from repro.experiments.fig4 import SUBFIGURES, run
from repro.util.tables import format_series


def test_fig5_ttft(benchmark, bench_scale):
    figures = run_once(benchmark, lambda: run("ttft", bench_scale))
    print()
    for title, series in figures.items():
        print(format_series("nodes", list(NODES), series,
                            title=f"Figure 5 ({title}) — TTFT", unit="seconds"))

    # Each target's first (small-draft) pair: Dolphin, Goliath, Falcon.
    for title, pairs in SUBFIGURES.items():
        series, label = figures[title], pairs[0][1]
        for i in range(len(NODES)):
            # Near-parity with iterative; far below speculative.
            assert series[f"Pipe. ({label})"][i] <= series["Iter."][i] * 1.1
            assert series[f"Spec. ({label})"][i] > series[f"Pipe. ({label})"][i] * 1.3
