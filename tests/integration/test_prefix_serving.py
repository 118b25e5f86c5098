"""Integration: the prefix cache's serving-level win (oracle backend).

The acceptance bar from the benchmark's side, in-suite: on a 50%-shared
workload the cache must deliver *strictly lower mean TTFT* than the same
workload served cache-off — with byte-identical per-request tokens and
hit/TTFT-split metrics populated on the :class:`ServingReport`.  Oracle
mode's prefill time scales with token count (unlike the functional
backend's fixed stage constants), so the TTFT effect shows in simulated
time and is deterministic across hosts.
"""

import pytest

from repro import (
    EngineConfig,
    GenerationJob,
    OracleBackend,
    PipeInferEngine,
    SpeculativeEngine,
    Workload,
    cluster_c,
    get_pair,
    run_engine,
    run_serving,
)
from repro.workloads import SharedPrefixTemplate

N_REQUESTS = 8


@pytest.fixture(scope="module")
def pair():
    return get_pair("dolphin+tinyllama")


@pytest.fixture(scope="module")
def cluster():
    return cluster_c(6)


def make_jobs(pair, share_fraction, shared_len=96, unique_len=24, seed=11,
              n_requests=N_REQUESTS, n_generate=16):
    template = SharedPrefixTemplate(
        shared_len=shared_len, unique_len=unique_len,
        share_fraction=share_fraction, seed=seed,
    )
    return tuple(
        GenerationJob(prompt=p, n_generate=n_generate)
        for p in template.prompts(n_requests, pair.target_arch.vocab)
    )


def run(pair, cluster, jobs, prefix_cache):
    backend = OracleBackend(pair, head_node=cluster.nodes[0])
    cfg = EngineConfig(n_seq_partitions=24, prefix_cache=prefix_cache)
    return run_serving(
        PipeInferEngine, backend, cluster,
        Workload(jobs=jobs, max_active=2), cfg,
    )


@pytest.fixture(scope="module")
def half_shared(pair, cluster):
    jobs = make_jobs(pair, share_fraction=0.5)
    off = run(pair, cluster, jobs, prefix_cache=False)
    on = run(pair, cluster, jobs, prefix_cache=True)
    return off, on


class TestHalfSharedWorkload:
    def test_outputs_byte_identical(self, half_shared):
        off, on = half_shared
        assert on.outputs() == off.outputs()

    def test_mean_ttft_strictly_lower(self, half_shared):
        off, on = half_shared
        assert on.ttft_mean < off.ttft_mean
        assert on.ttft_p50 <= off.ttft_p50

    def test_hit_metrics_populated(self, half_shared):
        _, on = half_shared
        assert on.prefix_hit_tokens > 0
        assert 0 < on.prefix_hit_rate < 1
        assert on.ttft_mean_hit > 0
        assert on.ttft_mean_miss > 0
        stats = on.prefix_cache_stats
        assert stats["requests_hit"] > 0
        assert stats["donated_nodes"] > 0
        assert stats["hit_tokens"] == on.prefix_hit_tokens

    def test_per_request_cached_tokens_only_on_sharers(self, half_shared):
        _, on = half_shared
        template = SharedPrefixTemplate(
            shared_len=96, unique_len=24, share_fraction=0.5, seed=11
        )
        for r in on.requests:
            if r.cached_tokens > 0:
                assert template.is_shared(r.req_id)

    def test_cache_off_reports_stay_clean(self, half_shared):
        off, _ = half_shared
        assert off.prefix_hit_tokens == 0
        assert off.prefix_cache_stats == {}
        assert all(r.cached_tokens == 0 for r in off.requests)


#: Fully shared scenarios: (pipeline nodes, shared/unique prompt lengths,
#: template seed, requests, tokens generated, measured prefix hit tokens).
#: The hit-token count is deterministic simulated bookkeeping, so it is
#: floored at its measured value: fewer hits is a behavior regression.
FULLY_SHARED = (
    (6, 96, 24, 11, N_REQUESTS, 16, 576),
    (4, 48, 12, 5, 6, 8, 192),
)


class TestFullyShared:
    def test_fully_shared_beats_half_shared_hit_rate(self, pair, half_shared):
        _, half = half_shared
        for (n_nodes, shared_len, unique_len, seed, n_requests, n_generate,
             min_hit_tokens) in FULLY_SHARED:
            cluster = cluster_c(n_nodes)
            jobs = make_jobs(
                pair, share_fraction=1.0, shared_len=shared_len,
                unique_len=unique_len, seed=seed, n_requests=n_requests,
                n_generate=n_generate,
            )
            on = run(pair, cluster, jobs, prefix_cache=True)
            off = run(pair, cluster, jobs, prefix_cache=False)
            assert on.outputs() == off.outputs()
            assert on.prefix_hit_tokens >= min_hit_tokens, on.prefix_hit_tokens
            assert on.prefix_hit_rate > half.prefix_hit_rate
            # The benchmark's acceptance bar at full sharing: >= 25%
            # mean-TTFT cut (measured 0.42 and 0.32).
            assert on.ttft_mean < 0.75 * off.ttft_mean, (
                f"{shared_len}+{unique_len}: {off.ttft_mean:.2f}s -> "
                f"{on.ttft_mean:.2f}s"
            )


def test_speculative_tree_yields_to_pinned_prefixes(pair):
    """Speculative serves through the same prefix cache.  With two pool
    partitions, a request whose match pins the one retained sequence
    holds the whole pool, so its tree rounds cannot take a branch
    partition and send canonical runs instead — same tokens, no crash."""
    cluster = cluster_c(4)
    jobs = make_jobs(
        pair, share_fraction=1.0, shared_len=48, unique_len=8, seed=5,
        n_requests=3, n_generate=12,
    )
    cfg = EngineConfig(n_seq_partitions=2, prefix_cache=True)
    backend = OracleBackend(pair, head_node=cluster.nodes[0])
    report = run_serving(SpeculativeEngine, backend, cluster, Workload(jobs=jobs), cfg)
    for i, job in enumerate(jobs):
        solo = run_engine(SpeculativeEngine, backend, cluster, job)
        assert report.outputs()[i] == solo.tokens
    first, *hits = report.requests
    assert first.stats.speculative > 0
    for r in hits:
        assert r.cached_tokens > 0
        assert r.stats.speculative == 0 and r.stats.canonical > 0
