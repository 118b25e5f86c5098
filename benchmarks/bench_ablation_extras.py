"""Extension ablations beyond Figure 8.

- micro-batch size sweep (Section IV-B1 says 1-4),
- cutoff recovery/decay factors (Section IV-B2's reactive speculation),
- draft alignment sweep (resilience claim of Section I).
"""

from benchmarks.conftest import run_once
from repro.cluster.testbed import cluster_c
from repro.engines.base import EngineConfig
from repro.experiments.common import run_cell
from repro.util.tables import format_series


def test_microbatch_sweep(benchmark, bench_scale):
    def compute():
        cluster = cluster_c(8)
        return {
            f"microbatch={mb}": [
                run_cell("dolphin+tinyllama", "pipe", cluster, bench_scale,
                         config=EngineConfig().ablated(microbatch_size=mb)
                         ).generation_speed
            ]
            for mb in (1, 2, 4, 8)
        }

    series = run_once(benchmark, compute)
    print()
    print(format_series("", ["tokens/s"], series, title="Micro-batch sweep"))
    speeds = {k: v[0] for k, v in series.items()}
    # All sizes work; the paper's 1-4 band is competitive with 8 (larger
    # batches pay the compute-bound penalty without more acceptance).
    assert all(s > 0 for s in speeds.values())
    best_small = max(speeds["microbatch=2"], speeds["microbatch=4"])
    assert best_small > 0.85 * speeds["microbatch=8"]


def test_cutoff_factor_sweep(benchmark, bench_scale):
    def compute():
        cluster = cluster_c(8)
        out = {}
        for rec, dec in ((0.0, 0.0), (0.06, 0.03), (0.2, 0.1)):
            cfg = EngineConfig().ablated(cutoff_recovery=rec, cutoff_decay=dec)
            r = run_cell("goliath+xwin7b", "pipe", cluster, bench_scale, config=cfg)
            out[f"recovery={rec}/decay={dec}"] = [
                r.generation_speed, r.stats.dispatch_efficiency
            ]
        return out

    series = run_once(benchmark, compute)
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

    def compute():
        from repro.engines.backend import OracleBackend
        from repro.engines.base import GenerationJob, run_engine
        from repro.core.engine import PipeInferEngine
        from repro.engines.speculative import SpeculativeEngine
        from repro.engines.iterative import IterativeEngine
        from repro.models.zoo import get_pair
        from repro.workloads.prompts import make_prompt

        cluster = cluster_c(8)
        pair = get_pair("dolphin+tinyllama")
        job = GenerationJob(
            make_prompt("wikitext", bench_scale.prompt_len, pair.target_arch.vocab),
            bench_scale.n_generate,
        )
        out = {}
        for acc in (0.15, 0.5, 0.85):
            row = []
            for eng in (IterativeEngine, SpeculativeEngine, PipeInferEngine):
                be = OracleBackend(pair, head_node=cluster.nodes[0],
                                   acceptance_override=acc)
                row.append(run_engine(eng, be, cluster, job).generation_speed)
            out[f"acceptance={acc}"] = row
        return out

    series = run_once(benchmark, compute)
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
