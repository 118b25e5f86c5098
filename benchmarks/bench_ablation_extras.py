"""Extension ablations beyond Figure 8 (``experiments.fig8.run_sweeps``).

- micro-batch size sweep (Section IV-B1 says 1-4),
- cutoff recovery/decay factors (Section IV-B2's reactive speculation),
- draft alignment sweep (resilience claim of Section I).
"""

from benchmarks.conftest import run_once
from repro.experiments.fig8 import run_sweeps
from repro.util.tables import format_series


def test_microbatch_sweep(benchmark, bench_scale):
    series = run_once(benchmark, lambda: run_sweeps(bench_scale))["microbatch"]
    print()
    print(format_series("", ["tokens/s"], series, title="Micro-batch sweep"))
    speeds = {k: v[0] for k, v in series.items()}
    # All sizes work; the paper's 1-4 band is competitive with 8 (larger
    # batches pay the compute-bound penalty without more acceptance).
    assert all(s > 0 for s in speeds.values())
    best_small = max(speeds["microbatch=2"], speeds["microbatch=4"])
    assert best_small > 0.85 * speeds["microbatch=8"]


def test_cutoff_factor_sweep(benchmark, bench_scale):
    series = run_once(benchmark, lambda: run_sweeps(bench_scale))["cutoff"]
    print()
    print(format_series("", ["tokens/s", "dispatch eff."], series,
                        title="Reactive-cutoff sweep (Goliath, 52% acceptance)"))
    # The factors trade throughput against efficiency ("tuned towards
    # higher performance or greater power efficiency", IV-B2): all
    # settings must stay within a modest band of the default — the knob
    # is a tuning dial, not a cliff.
    speeds = [v[0] for v in series.values()]
    assert max(speeds) / min(speeds) < 1.5
    assert all(s > 0 for s in speeds)


def test_alignment_sweep(benchmark, bench_scale):
    """PipeInfer's near-zero slowdown at poor acceptance vs speculative."""
    series = run_once(benchmark, lambda: run_sweeps(bench_scale))["alignment"]
    print()
    print(format_series("strategy", ["iter", "spec", "pipe"], series,
                        title="Alignment sweep (8 nodes)", unit="tokens/s"))
    # At terrible alignment PipeInfer stays near iterative speed
    # ("near-zero slowdown for poor speculation accuracy") while the
    # synchronous baseline collapses well below it.
    it, sp, pi = series["acceptance=0.15"]
    assert pi >= it * 0.85
    assert sp < it
    # At every alignment PipeInfer >= speculative.
    for row in series.values():
        assert row[2] >= row[1] * 0.95
