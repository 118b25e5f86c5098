"""Figure 4a: Dolphin-70B generation speeds (TinyLlama / Orca2 drafts)."""

from benchmarks.conftest import run_once
from repro.experiments.common import PAPER_NODE_COUNTS as NODES
from repro.experiments.fig4 import run
from repro.util.tables import format_series


def test_fig4a(benchmark, bench_scale):
    series = run_once(benchmark, lambda: run("generation_speed", bench_scale))["4a: Dolphin-70B"]
    print()
    print(format_series("nodes", list(NODES), series,
                        title="Figure 4a — Dolphin-70B speeds", unit="tokens/s"))

    # Paper shapes: PipeInfer leads at depth; iterative/speculative ~flat.
    for label in ("TinyLlama", "Orca2"):
        pipe, spec = series[f"Pipe. ({label})"], series[f"Spec. ({label})"]
        assert pipe[1] > spec[1] and pipe[2] > spec[2]
        assert pipe[1] >= pipe[0] * 0.95  # depth never hurts PipeInfer here
    # The well-aligned pair gains from the deeper pipeline (paper Fig. 4a;
    # the Orca2 pair is flatter there too).
    assert series["Pipe. (TinyLlama)"][1] > series["Pipe. (TinyLlama)"][0] * 1.05
    it = series["Iter."]
    assert max(it) / min(it) < 1.4
    # The better-aligned TinyLlama pair speculates at least as fast.
    assert series["Pipe. (TinyLlama)"][1] >= series["Pipe. (Orca2)"][1] * 0.9
