"""Multi-request serving: correctness and throughput.

The acceptance bar for the serving layer:

- every request served concurrently produces *exactly* the tokens its
  single-job run produces (the scheduler multiplexes timing, never
  output);
- concurrency beats sequential one-at-a-time execution on the same
  cluster (speculation bubbles of one request are filled by another's
  runs);
- the aggregate :class:`ServingReport` exposes TTFT/ITL/queue-wait
  percentiles and per-request token counts.
"""

import math

import pytest

from repro import (
    EngineConfig,
    FunctionalBackend,
    GenerationJob,
    IterativeEngine,
    OracleBackend,
    PipeInferEngine,
    SpeculativeEngine,
    Workload,
    cluster_c,
    get_pair,
    make_testbed,
    run_engine,
    run_serving,
)
from repro.models.transformer import perturbed_copy
from repro.workloads import closed_loop_arrivals, make_prompt, poisson_arrivals
from tests.conftest import PROMPT

N_REQUESTS = 8


def _oracle_cell(key, n_nodes, changes=None):
    """A Figure 4-sized PipeInfer job on testbed C: 64 prompt tokens, 48 out."""

    def build(_tiny_target):
        pair = get_pair(key)
        job = GenerationJob(
            make_prompt("wikitext", 64, pair.target_arch.vocab), n_generate=48
        )
        cfg = EngineConfig().ablated(**changes) if changes else None

        def backend(cluster):
            return OracleBackend(pair, head_node=cluster.nodes[0])

        return backend, n_nodes, job, cfg

    return build


def _functional_cell(tiny_target):
    """A tiny-transformer job whose cutoff often halts drafting."""
    from repro.spec.draft import DraftParams

    draft = perturbed_copy(tiny_target, noise=0.15, seed=9)
    cfg = EngineConfig(
        draft=DraftParams(max_tokens=4, cutoff=0.1),
        cutoff_recovery=0.01,
        cutoff_decay=0.01,
    )
    job = GenerationJob(prompt=PROMPT, n_generate=24)

    def backend(_cluster):
        return FunctionalBackend(tiny_target, draft, n_cells=512)

    return backend, 4, job, cfg


#: name -> builder of (backend factory taking the cluster, node count,
#: job, config).
ONE_REQUEST_CELLS = {
    "dolphin+tinyllama/4": _oracle_cell("dolphin+tinyllama", 4),
    "falcon+7b/8": _oracle_cell("falcon+7b", 8),
    "goliath+xwin7b/15": _oracle_cell("goliath+xwin7b", 15),
    "dolphin+orca2/32": _oracle_cell("dolphin+orca2", 32),
    "no_continuous/falcon+7b/15": _oracle_cell(
        "falcon+7b", 15, {"enable_continuous": False}
    ),
    "no_cancellation/dolphin+tinyllama/8": _oracle_cell(
        "dolphin+tinyllama", 8, {"enable_cancellation": False}
    ),
    "functional": _functional_cell,
}


@pytest.fixture(scope="module")
def pair():
    return get_pair("dolphin+tinyllama")


@pytest.fixture(scope="module")
def cluster():
    return cluster_c(6)


@pytest.fixture(scope="module")
def oracle_backend(pair, cluster):
    return OracleBackend(pair, head_node=cluster.nodes[0])


@pytest.fixture(scope="module")
def jobs(pair):
    kinds = ("wikitext", "code", "explain", "paper", "roleplay", "story",
             "wikitext", "code")
    return tuple(
        GenerationJob(
            prompt=make_prompt(k, length=24 + 4 * i, vocab=pair.target_arch.vocab),
            n_generate=24,
        )
        for i, k in enumerate(kinds[:N_REQUESTS])
    )


@pytest.fixture(scope="module")
def serving_report(oracle_backend, cluster, jobs):
    workload = Workload(
        jobs=jobs, arrivals=poisson_arrivals(rate=2.0, n=len(jobs), seed=3)
    )
    return run_serving(PipeInferEngine, oracle_backend, cluster, workload)


class TestConcurrentCorrectness:
    def test_eight_concurrent_requests_complete(self, serving_report):
        assert serving_report.n_requests == N_REQUESTS
        assert all(r.n_tokens == 24 for r in serving_report.requests)

    def test_outputs_match_single_job_token_for_token(
        self, serving_report, oracle_backend, cluster, jobs
    ):
        served = serving_report.outputs()
        for i, job in enumerate(jobs):
            single = run_engine(PipeInferEngine, oracle_backend, cluster, job)
            assert served[i] == single.tokens, f"request {i} diverged"

    @pytest.mark.parametrize("cell", list(ONE_REQUEST_CELLS))
    def test_single_job_is_a_one_request_serving_run(self, cell, tiny_target):
        """``run_engine`` is ``run_serving`` on a one-request queue: the same
        tokens, prefill end, finish, inter-token gaps and head counters."""
        make_backend, n_nodes, job, cfg = ONE_REQUEST_CELLS[cell](tiny_target)
        cluster = make_testbed("C", n_nodes)
        single = run_engine(PipeInferEngine, make_backend(cluster), cluster, job, cfg)
        cluster = make_testbed("C", n_nodes)
        (served,) = run_serving(
            PipeInferEngine, make_backend(cluster), cluster,
            Workload(jobs=(job,)), cfg,
        ).requests
        gaps = served.itl_samples
        assert single.tokens == served.tokens
        # Verified tokens over the decode span, prefill end to finish.
        span = served.finish_time - served.prefill_end
        assert single.generation_speed == (len(gaps) + 1) / span
        assert single.itl == pytest.approx(sum(gaps) / len(gaps), rel=1e-12)
        for name in ("dispatched", "speculative", "completed",
                     "draft_tokens_proposed", "draft_tokens_accepted"):
            assert getattr(single.stats, name) == getattr(served.stats, name), name

    def test_requests_actually_overlap(self, serving_report):
        """At least two requests must have been in flight simultaneously."""
        spans = [
            (r.admitted_at, r.finish_time) for r in serving_report.requests
        ]
        overlaps = sum(
            1
            for i, (a0, a1) in enumerate(spans)
            for b0, b1 in spans[i + 1:]
            if a0 < b1 and b0 < a1
        )
        assert overlaps > 0


class TestThroughput:
    def test_concurrency_beats_sequential(self, oracle_backend, cluster, jobs):
        closed = closed_loop_arrivals(len(jobs))
        sequential = run_serving(
            PipeInferEngine, oracle_backend, cluster,
            Workload(jobs=jobs, arrivals=closed, max_active=1),
        )
        concurrent = run_serving(
            PipeInferEngine, oracle_backend, cluster,
            Workload(jobs=jobs, arrivals=closed),
        )
        # Same outputs either way; better aggregate throughput concurrent.
        assert concurrent.outputs() == sequential.outputs()
        assert concurrent.throughput > sequential.throughput
        assert concurrent.makespan < sequential.makespan


class TestOpenLoopQueueing:
    """Open-loop Poisson traffic with admission capped at four requests."""

    @pytest.mark.parametrize("n_nodes", (4, 8))
    def test_queue_wait_grows_with_request_rate(self, pair, n_nodes):
        # Arrivals compress as the rate rises while the capped service
        # order stays fixed, so the mean queue wait cannot fall.
        cluster = cluster_c(n_nodes)
        backend = OracleBackend(pair, head_node=cluster.nodes[0])
        kinds = ("wikitext", "code", "explain", "paper", "roleplay")
        jobs = tuple(
            GenerationJob(
                make_prompt(kinds[i % len(kinds)], 64, pair.target_arch.vocab),
                n_generate=32,
            )
            for i in range(10)
        )

        def mean_queue_wait(rate):
            workload = Workload(
                jobs=jobs,
                arrivals=poisson_arrivals(rate, len(jobs), seed=11),
                max_active=4,
            )
            report = run_serving(PipeInferEngine, backend, cluster, workload)
            assert report.token_counts() == {i: 32 for i in range(len(jobs))}
            return sum(r.queue_wait for r in report.requests) / len(jobs)

        low, high = mean_queue_wait(0.5), mean_queue_wait(4.0)
        assert low > 0  # the cap makes admission queueing visible
        assert high >= low


class TestServingReport:
    def test_percentile_fields(self, serving_report):
        r = serving_report
        assert 0 <= r.ttft_p50 <= r.ttft_p95 <= r.ttft_p99
        assert 0 <= r.itl_p50 <= r.itl_p95 <= r.itl_p99
        assert 0 <= r.queue_wait_p50 <= r.queue_wait_p95 <= r.queue_wait_p99
        assert all(map(math.isfinite, (r.ttft_p99, r.itl_p99, r.queue_wait_p99)))

    def test_token_counts_and_throughput(self, serving_report):
        counts = serving_report.token_counts()
        assert counts == {i: 24 for i in range(N_REQUESTS)}
        assert serving_report.throughput > 0
        assert serving_report.makespan > 0

    def test_request_timelines_ordered(self, serving_report):
        for r in serving_report.requests:
            assert r.arrival <= r.admitted_at <= r.prefill_end <= r.finish_time
            assert r.queue_wait >= 0
            assert r.ttft >= 0


class TestSequentialBaselines:
    """The synchronous baselines are served by the same head as PipeInfer,
    under a policy that admits a request only when nothing is active: FCFS,
    one request at a time."""

    @pytest.mark.parametrize("engine", [SpeculativeEngine, IterativeEngine])
    def test_baseline_serving_matches_single_job(
        self, engine, oracle_backend, cluster, jobs
    ):
        workload = Workload(jobs=jobs[:3])
        report = run_serving(engine, oracle_backend, cluster, workload)
        for i, job in enumerate(jobs[:3]):
            single = run_engine(engine, oracle_backend, cluster, job)
            assert report.outputs()[i] == single.tokens
        served = sorted(report.requests, key=lambda r: r.admitted_at)
        for prev, nxt in zip(served, served[1:]):
            assert nxt.admitted_at >= prev.finish_time


class TestFunctionalServing:
    """Real tiny-transformer math: KV partitioning across requests."""

    def test_outputs_match_single_job(self, tiny_target):
        from repro.spec.draft import DraftParams

        draft = perturbed_copy(tiny_target, noise=0.15, seed=9)
        cfg = EngineConfig(
            draft=DraftParams(max_tokens=4, cutoff=0.02),
            cutoff_recovery=0.01,
            cutoff_decay=0.01,
        )
        jobs = tuple(
            GenerationJob(prompt=tuple(p + i for p in PROMPT), n_generate=12)
            for i in range(3)
        )
        backend = FunctionalBackend(tiny_target, draft, n_cells=2048)
        report = run_serving(
            PipeInferEngine, backend, cluster_c(3), Workload(jobs=jobs), cfg
        )
        for i, job in enumerate(jobs):
            single = run_engine(
                PipeInferEngine,
                FunctionalBackend(tiny_target, draft, n_cells=2048),
                cluster_c(3),
                job,
                cfg,
            )
            assert report.outputs()[i] == single.tokens, f"request {i} diverged"

    def test_smoke_keeps_resume_budget(self, tiny_target, tiny_draft):
        """Three queued requests on a 4-node pipeline: the batched inbox
        hand-off keeps kernel process resumes within an absolute budget."""
        from repro.spec.draft import DraftParams

        cfg = EngineConfig(
            draft=DraftParams(max_tokens=4, cutoff=0.02),
            cutoff_recovery=0.01,
            cutoff_decay=0.01,
            n_seq_partitions=24,
        )
        jobs = tuple(
            GenerationJob(prompt=make_prompt(kind, length=16, vocab=128), n_generate=8)
            for kind in ("wikitext", "code", "explain")
        )
        backend = FunctionalBackend(tiny_target, tiny_draft, n_cells=4096)
        report = run_serving(
            PipeInferEngine, backend, cluster_c(4), Workload(jobs=jobs), cfg
        )
        assert report.token_counts() == {0: 8, 1: 8, 2: 8}
        # Budget: 0.5 resumes per message over the 143 messages this run
        # delivered while transaction start markers were still messages,
        # i.e. 71.5 resumes.  Measured: 8 resumes over 95 messages, two
        # per process, since the head and the workers each park once.
        assert report.n_resumes < 71.5, (report.n_resumes, report.n_delivered)

    def test_bounded_cache_throttles_admission(self, tiny_target):
        """A workload exceeding the KV cell budget queues instead of
        overflowing the fixed-capacity functional cache mid-flight."""
        from repro.spec.draft import DraftParams

        draft = perturbed_copy(tiny_target, noise=0.15, seed=9)
        cfg = EngineConfig(
            draft=DraftParams(max_tokens=4, cutoff=0.02),
            cutoff_recovery=0.01,
            cutoff_decay=0.01,
            n_seq_partitions=12,
        )
        jobs = tuple(
            GenerationJob(prompt=tuple(p + i for p in PROMPT), n_generate=20)
            for i in range(8)
        )
        # 8 concurrent requests would need ~400 cells; 128 forces queueing.
        backend = FunctionalBackend(tiny_target, draft, n_cells=128)
        report = run_serving(
            PipeInferEngine, backend, cluster_c(3), Workload(jobs=jobs), cfg
        )
        assert report.token_counts() == {i: 20 for i in range(8)}
        waited = [r for r in report.requests if r.queue_wait > 0]
        assert waited, "cell budget should have delayed some admissions"
