"""Engines over the oracle backend (performance mode).

The oracle target is deterministic under greedy decoding, so every
strategy must produce the same token stream here too — this exercises the
same engine logic as the functional tests but at cluster scale with
analytic costs.
"""

import pytest

import repro.models.oracle as oracle_module
from repro import (
    EngineConfig,
    GenerationJob,
    IterativeEngine,
    OracleBackend,
    PipeInferEngine,
    SingleNodeEngine,
    SpeculativeEngine,
    cluster_a,
    cluster_c,
    get_pair,
    run_engine,
)
from repro.serve.cluster import Replica
from repro.serve.scheduler import Request
from repro.spec.draft import DraftParams

JOB = GenerationJob(prompt=tuple(range(100, 164)), n_generate=64)


@pytest.fixture(scope="module")
def pair():
    return get_pair("dolphin+tinyllama")


def backend_for(pair, cluster):
    return OracleBackend(pair, head_node=cluster.nodes[0])


class TestTokenConsistency:
    def test_all_strategies_same_tokens(self, pair):
        cluster = cluster_c(4)
        be = backend_for(pair, cluster)
        tokens = {}
        for engine in (IterativeEngine, SpeculativeEngine, PipeInferEngine):
            tokens[engine.name] = run_engine(engine, be, cluster, JOB).tokens
        assert tokens["iterative"] == tokens["speculative"] == tokens["pipeinfer"]

    def test_same_tokens_across_cluster_sizes(self, pair):
        outs = []
        for n in (2, 4, 8):
            cluster = cluster_c(n)
            outs.append(
                run_engine(PipeInferEngine, backend_for(pair, cluster), cluster, JOB).tokens
            )
        assert outs[0] == outs[1] == outs[2]

    def test_tokens_in_vocab(self, pair):
        cluster = cluster_c(4)
        r = run_engine(PipeInferEngine, backend_for(pair, cluster), cluster, JOB)
        assert len(r.tokens) == JOB.n_generate
        assert all(0 <= t < pair.target_arch.vocab for t in r.tokens)


class TestCalibration:
    @pytest.mark.parametrize("key", ["dolphin+tinyllama", "goliath+xwin7b", "falcon+7b"])
    def test_measured_acceptance_near_paper_rate(self, key):
        """Section V-B acceptance rates reproduce within tolerance."""
        pair = get_pair(key)
        cluster = cluster_c(8)
        be = backend_for(pair, cluster)
        job = GenerationJob(prompt=tuple(range(100, 228)), n_generate=192)
        r = run_engine(SpeculativeEngine, be, cluster, job)
        assert r.acceptance_rate == pytest.approx(pair.acceptance, abs=0.08)

    def test_acceptance_ordering_preserved(self):
        """Better-aligned pairs measure higher acceptance."""
        cluster = cluster_c(8)
        rates = {}
        for key in ("goliath+xwin7b", "dolphin+orca2", "dolphin+tinyllama"):
            pair = get_pair(key)
            r = run_engine(
                PipeInferEngine, backend_for(pair, cluster), cluster,
                GenerationJob(prompt=tuple(range(100, 228)), n_generate=128),
            )
            rates[key] = r.acceptance_rate
        assert rates["goliath+xwin7b"] < rates["dolphin+orca2"] < rates["dolphin+tinyllama"]


class TestOneStagePath:
    @pytest.mark.parametrize(
        "engine, n_nodes",
        [
            (PipeInferEngine, 4),
            (IterativeEngine, 4),
            (SpeculativeEngine, 4),
            (SingleNodeEngine, 1),
        ],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_every_target_stage_is_a_worker(self, pair, engine, n_nodes):
        """Every target stage runs in ``pipeline_worker``: the head holds
        no layers, so the first stage records its own fusion windows, and
        the engine's collector stays the replica's for the whole run."""
        cluster = cluster_c(n_nodes)
        replica = Replica(0, engine, backend_for(pair, cluster), cluster)
        replica.start()
        replica.admit(Request(0, GenerationJob(tuple(range(100, 116)), 8), 0.0))
        mid_run = 1.0
        seen = []
        replica.kernel.call_at(
            mid_run, lambda: seen.append(replica.engine.metrics is replica.metrics)
        )
        replica.drain()
        eng = replica.engine
        (request,) = eng.request_reports
        assert request.admitted_at < mid_run < request.finish_time
        assert sorted(eng._worker_procs) == eng.target_ranks()
        assert eng.target_ranks()[0] in replica.metrics.fusion_width
        assert seen == [True]


class TestHostCostPerToken:
    @pytest.mark.parametrize(
        "engine, draft",
        [
            (SpeculativeEngine, DraftParams()),
            (SpeculativeEngine, DraftParams(branch_width=3, branch_margin=0.9)),
            (PipeInferEngine, DraftParams()),
        ],
        ids=["speculative", "speculative-branching", "pipeinfer"],
    )
    def test_no_full_prefix_hash_after_admission(self, pair, engine, draft, monkeypatch):
        """Every oracle state after admission comes from a chain's rolling
        states or a tree cursor, one ``advance`` per new token.  The
        full-prefix hash behind ``OracleLM.init_state`` therefore only
        ever hashes the empty prefix, each chain's starting state."""
        cluster = cluster_c(8)
        be = backend_for(pair, cluster)
        lengths = []
        full_hash = oracle_module.hash_tokens

        def spy(seed, tokens, salt=0):
            tokens = list(tokens)
            lengths.append(len(tokens))
            return full_hash(seed, tokens, salt)

        monkeypatch.setattr(oracle_module, "hash_tokens", spy)
        report = run_engine(engine, be, cluster, JOB, EngineConfig(draft=draft))
        assert len(report.tokens) == JOB.n_generate
        assert lengths and set(lengths) == {0}


class TestReports:
    def test_report_fields_populated(self, pair):
        cluster = cluster_c(4)
        r = run_engine(PipeInferEngine, backend_for(pair, cluster), cluster, JOB)
        assert r.generation_speed > 0
        assert 0 < r.ttft < 10
        assert 0 < r.itl < 10
        assert r.mean_node_memory > 1e9
        assert r.stats.dispatched > 0
        assert 0 < r.utilization <= 1

    def test_memory_iterative_below_speculative(self, pair):
        """Iterative holds no draft model (paper's memory analysis)."""
        cluster = cluster_c(4)
        be = backend_for(pair, cluster)
        ri = run_engine(IterativeEngine, be, cluster, JOB)
        rs = run_engine(SpeculativeEngine, be, cluster, JOB)
        rp = run_engine(PipeInferEngine, be, cluster, JOB)
        assert ri.max_node_memory < rs.max_node_memory
        assert rs.max_node_memory == pytest.approx(rp.max_node_memory, rel=0.25)

    def test_per_node_memory_shrinks_with_nodes(self, pair):
        mems = []
        for n in (4, 8, 16):
            cluster = cluster_c(n)
            r = run_engine(IterativeEngine, backend_for(pair, cluster), cluster, JOB)
            mems.append(r.mean_node_memory)
        assert mems[0] > mems[1] > mems[2]


class TestEdgeCases:
    def test_pipeinfer_rejects_single_node(self, pair):
        from repro.cluster.kernel import SimKernel
        from repro.comm.mpi_sim import Network
        from repro.metrics.collectors import MetricsCollector
        from repro.engines.base import EngineConfig

        cluster = cluster_c(1)
        kernel = SimKernel()
        net = Network(kernel, cluster)
        with pytest.raises(ValueError):
            PipeInferEngine(
                backend_for(pair, cluster), net, EngineConfig(), MetricsCollector()
            )

    def test_two_node_pipeinfer_works(self, pair):
        cluster = cluster_c(2)
        r = run_engine(PipeInferEngine, backend_for(pair, cluster), cluster, JOB)
        assert len(r.tokens) == JOB.n_generate

    def test_short_generation(self, pair):
        cluster = cluster_c(4)
        job = GenerationJob(prompt=(1, 2, 3, 4), n_generate=2)
        r = run_engine(PipeInferEngine, backend_for(pair, cluster), cluster, job)
        assert len(r.tokens) == 2

    def test_heterogeneous_cluster_b(self, pair):
        cluster = cluster_a(4)
        r = run_engine(PipeInferEngine, backend_for(pair, cluster), cluster, JOB)
        assert len(r.tokens) == JOB.n_generate
