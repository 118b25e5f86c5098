"""Figure 4c: Falcon-180B generation speeds (Falcon-7B / Falcon-40B drafts)."""

from benchmarks.conftest import run_once
from repro.experiments.common import PAPER_NODE_COUNTS as NODES
from repro.experiments.fig4 import run
from repro.util.tables import format_series


def test_fig4c(benchmark, bench_scale):
    series = run_once(benchmark, lambda: run("generation_speed", bench_scale))["4c: Falcon-180B"]
    print()
    print(format_series("nodes", list(NODES), series,
                        title="Figure 4c — Falcon-180B speeds", unit="tokens/s"))

    # The huge 40B draft makes synchronous speculation pay dearly at every
    # node count (paper: "extreme computation requirements of the
    # speculative model"), while PipeInfer hides the draft latency.
    assert series["Spec. (Falcon-40B)"][0] < series["Spec. (Falcon-7B)"][0]
    for i in (1, 2, 3):
        assert series["Pipe. (Falcon-7B)"][i] > series["Spec. (Falcon-7B)"][i]
        assert series["Pipe. (Falcon-40B)"][i] > series["Spec. (Falcon-40B)"][i]
