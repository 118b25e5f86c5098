"""Differential property suite: prefix cache ON == OFF, token for token.

The prefix cache is a scheduling/metadata optimization on the paper's
IV-C transaction plane — it must never change *what* is generated.  The
suite serves shared-prefix workloads through the functional backend
(real attention math over the materialized cells) twice, cache off and
on, and asserts byte-identical per-request outputs under:

- plain shared-system-prompt traffic (hits on a warm tree);
- mid-stream eviction (a tiny ``prefix_cache_cells`` budget forcing LRU
  leaf eviction while requests are in flight);
- speculation over a matched prefix (drafting/verification defaults on,
  so speculative partitions copy materialized cells);
- donate-then-rematch round trips (multi-turn prompts extending one
  radix path turn by turn);
- randomized workloads mixing shared groups, unique prompts, and
  arrival staggering.
"""

import numpy as np
import pytest

from repro import (
    EngineConfig,
    FunctionalBackend,
    GenerationJob,
    PipeInferEngine,
    TinyTransformer,
    Workload,
    cluster_c,
    run_serving,
)
from repro.models.transformer import perturbed_copy
from repro.spec.draft import DraftParams
from repro.workloads import MultiTurnTemplate, SharedPrefixTemplate
from tests.conftest import TINY_CFG

VOCAB = TINY_CFG.vocab


@pytest.fixture(scope="module")
def models():
    target = TinyTransformer(TINY_CFG)
    return target, perturbed_copy(target, noise=0.15, seed=9)


def serve(models, jobs, prefix_cache, max_active=2, n_cells=2048, **cfg_kw):
    target, draft = models
    backend = FunctionalBackend(target, draft, n_cells=n_cells)
    cfg = EngineConfig(
        draft=DraftParams(max_tokens=4, cutoff=0.02),
        cutoff_recovery=0.01,
        cutoff_decay=0.01,
        n_seq_partitions=24,
        prefix_cache=prefix_cache,
        **cfg_kw,
    )
    workload = Workload(jobs=tuple(jobs), max_active=max_active)
    return run_serving(PipeInferEngine, backend, cluster_c(3), workload, cfg)


def assert_on_equals_off(models, jobs, **cfg_kw):
    off = serve(models, jobs, prefix_cache=False, **cfg_kw)
    on = serve(models, jobs, prefix_cache=True, **cfg_kw)
    assert on.outputs() == off.outputs()
    return on


class TestOnEqualsOff:
    def test_shared_prefix_with_hits(self, models):
        template = SharedPrefixTemplate(
            shared_len=24, unique_len=6, seed=3
        )
        jobs = [
            GenerationJob(prompt=p, n_generate=10)
            for p in template.prompts(6, VOCAB)
        ]
        on = assert_on_equals_off(models, jobs, min_match_tokens=8)
        assert on.prefix_hit_tokens > 0
        assert on.prefix_cache_stats["donated_nodes"] >= 1
        assert on.prefix_hit_rate > 0
        assert on.ttft_mean_hit > 0  # the hit population exists

    def test_speculation_over_matched_prefix(self, models):
        """Deep speculation defaults: speculative partitions copy context
        that includes materialized (cache-hit) cells."""
        template = SharedPrefixTemplate(shared_len=24, unique_len=6, seed=4)
        jobs = [
            GenerationJob(prompt=p, n_generate=16)
            for p in template.prompts(5, VOCAB)
        ]
        on = assert_on_equals_off(
            models, jobs, min_match_tokens=8, lookahead_cap=16
        )
        assert on.prefix_hit_tokens > 0
        assert on.stats.speculative > 0  # speculation actually ran

    def test_mid_stream_eviction(self, models):
        """A 40-cell retained budget forces LRU eviction between (and
        during) requests; outputs must not move."""
        template = SharedPrefixTemplate(
            shared_len=24, unique_len=6, n_groups=3, seed=5
        )
        jobs = [
            GenerationJob(prompt=p, n_generate=8)
            for p in template.prompts(9, VOCAB)
        ]
        on = assert_on_equals_off(
            models, jobs, min_match_tokens=8, prefix_cache_cells=40
        )
        assert on.prefix_cache_stats["evictions"] >= 1

    def test_donate_then_rematch_multiturn(self, models):
        """Multi-turn sessions: each turn extends the previous turn's
        prompt, so the tree grows one path per session and later turns
        re-match what earlier turns donated."""
        template = MultiTurnTemplate(
            system_len=16, turn_len=10, n_turns=3, seed=6
        )
        jobs = [
            GenerationJob(prompt=p, n_generate=8)
            for p in template.prompts(2, VOCAB)
        ]
        on = assert_on_equals_off(models, jobs, min_match_tokens=8)
        stats = on.prefix_cache_stats
        assert stats["requests_hit"] >= 3
        assert stats["donated_nodes"] >= 3  # extensions donated per turn

    def test_bounded_worker_cache_with_retained_cells(self, models):
        """Small worker cell capacity: admission must account retained
        cells (CellBudget.retained) and reclaim them under pressure
        instead of overflowing the fixed functional cache."""
        template = SharedPrefixTemplate(shared_len=24, unique_len=6, seed=7)
        jobs = [
            GenerationJob(prompt=p, n_generate=8)
            for p in template.prompts(6, VOCAB)
        ]
        on = assert_on_equals_off(
            models, jobs, min_match_tokens=8, n_cells=160, max_active=None
        )
        assert on.prefix_hit_tokens >= 0  # completed without overflow

    @pytest.mark.parametrize("seed", range(4))
    def test_random_workloads(self, models, seed):
        """Randomized mix: shared groups, unique prompts, varying lengths
        and budgets — cache on must always reproduce cache off."""
        rng = np.random.default_rng(seed)
        template = SharedPrefixTemplate(
            shared_len=int(rng.integers(16, 32)),
            unique_len=int(rng.integers(4, 10)),
            n_groups=int(rng.integers(1, 3)),
            share_fraction=float(rng.uniform(0.4, 1.0)),
            seed=seed,
        )
        n = int(rng.integers(4, 8))
        jobs = [
            GenerationJob(prompt=p, n_generate=int(rng.integers(6, 12)))
            for p in template.prompts(n, VOCAB)
        ]
        assert_on_equals_off(
            models, jobs,
            min_match_tokens=int(rng.integers(6, 12)),
            prefix_cache_cells=int(rng.integers(48, 512)),
            max_active=int(rng.integers(1, 4)),
        )


class TestRequestReportFields:
    def test_cached_tokens_on_reports(self, models):
        template = SharedPrefixTemplate(shared_len=24, unique_len=6, seed=9)
        jobs = [
            GenerationJob(prompt=p, n_generate=6)
            for p in template.prompts(4, VOCAB)
        ]
        on = serve(models, jobs, prefix_cache=True, min_match_tokens=8)
        hit = [r for r in on.requests if r.cached_tokens > 0]
        assert hit, "warm tree should have produced at least one hit"
        for r in on.requests:
            assert 0 <= r.cached_tokens < r.prompt_tokens
        assert on.prefix_hit_tokens == sum(r.cached_tokens for r in on.requests)


class TestOversizedLoneRequest:
    def test_oversized_request_with_warm_match_still_admits(self, models):
        """Regression: a request whose worst-case demand exceeds worker
        capacity pins its own prefix match, so ``budget.retained`` can
        never reach zero — the lone-request escape hatch must still
        admit it (surfacing any overflow like a single job would)
        instead of idling forever."""
        shared = tuple(range(20, 60))  # 40-token shared prefix
        jobs = [
            # Fits capacity: donates the prefix.
            GenerationJob(prompt=shared, n_generate=4),
            # Worst case 40 + 8 + 16 + 4 = 68 > 64 cells: oversized.
            GenerationJob(prompt=shared, n_generate=8),
        ]
        target, draft = models
        backend = FunctionalBackend(target, draft, n_cells=64)
        cfg = EngineConfig(
            draft=DraftParams(max_tokens=4, cutoff=0.02),
            cutoff_recovery=0.01,
            cutoff_decay=0.01,
            n_seq_partitions=12,
            prefix_cache=True,
            min_match_tokens=8,
        )
        # Arrival far past request 0's completion: the tree is warm and
        # request 1 runs alone.
        workload = Workload(jobs=tuple(jobs), arrivals=(0.0, 10.0))
        report = run_serving(
            PipeInferEngine, backend, cluster_c(3), workload, cfg
        )
        assert report.token_counts() == {0: 4, 1: 8}
        assert report.requests[1].cached_tokens > 0
