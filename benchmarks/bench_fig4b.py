"""Figure 4b: Goliath-120B generation speeds (XWin-7B / XWin-13B drafts)."""

from benchmarks.conftest import run_once
from repro.experiments.common import PAPER_NODE_COUNTS as NODES
from repro.experiments.fig4 import run
from repro.util.tables import format_series


def test_fig4b(benchmark, bench_scale):
    series = run_once(benchmark, lambda: run("generation_speed", bench_scale))["4b: Goliath-120B"]
    print()
    print(format_series("nodes", list(NODES), series,
                        title="Figure 4b — Goliath-120B speeds", unit="tokens/s"))

    # Low alignment (52%): speculative declines with node count while
    # PipeInfer stays clearly ahead — the paper's resilience claim.
    spec7 = series["Spec. (XWin-7B)"]
    assert spec7[-1] < spec7[0]
    for i, _ in enumerate(NODES[1:], start=1):
        assert series["Pipe. (XWin-7B)"][i] > spec7[i]
    # Better-aligned XWin-13B lifts speculation quality.
    assert series["Pipe. (XWin-13B)"][1] >= series["Pipe. (XWin-7B)"][1] * 0.95
