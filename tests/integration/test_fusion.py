"""Fused multi-run stage execution: engine-level invariants.

The fusion window must be a pure scheduling optimization: engine token
outputs are byte-identical with fusion disabled (``max_fused_runs=1``),
forwarded record order is preserved, and cancellation keeps working when
it lands mid-window.  Under serving load the window must actually fuse
(width > 1), otherwise the batching headroom is untested.
"""


from repro import (
    EngineConfig,
    FunctionalBackend,
    GenerationJob,
    PipeInferEngine,
    SingleNodeEngine,
    Workload,
    cluster_c,
    run_engine,
)
from repro.cluster.kernel import Delay, SimKernel, run_to_completion
from repro.comm.message import Tag
from repro.comm.mpi_sim import Network
from repro.comm.payloads import CancelMsg, ShutdownMsg
from repro.comm.transactions import TransactionType, send_transaction
from repro.engines.backend import OracleBackend
from repro.engines.worker import pipeline_worker
from repro.metrics.collectors import MetricsCollector
from repro.models.zoo import get_pair
from repro.serve.run import run_serving
from repro.spec.draft import DraftParams
from repro.workloads import make_prompt, poisson_arrivals
from oracles.blocking import recv
from tests.conftest import PROMPT
from tests.integration.test_worker_protocol import decode_pieces


def functional_cfg(**overrides) -> EngineConfig:
    base = {
        "draft": DraftParams(max_tokens=4, cutoff=0.02),
        "cutoff_recovery": 0.01,
        "cutoff_decay": 0.01,
    }
    base.update(overrides)
    return EngineConfig(**base)


def serving_workload(n_requests=6, n_generate=16):
    kinds = ("wikitext", "code", "explain", "paper", "roleplay")
    jobs = tuple(
        GenerationJob(
            prompt=make_prompt(kinds[i % len(kinds)], length=24, vocab=128),
            n_generate=n_generate,
        )
        for i in range(n_requests)
    )
    return Workload(jobs=jobs, arrivals=poisson_arrivals(3.0, n_requests, seed=5))


class TestFusionEquivalence:
    def test_single_job_tokens_invariant_under_fusion(self, functional_backend):
        job = GenerationJob(prompt=PROMPT, n_generate=24)
        fused = run_engine(
            PipeInferEngine, functional_backend, cluster_c(4), job,
            functional_cfg(max_fused_runs=8),
        )
        unfused = run_engine(
            PipeInferEngine, functional_backend, cluster_c(4), job,
            functional_cfg(max_fused_runs=1),
        )
        assert fused.tokens == unfused.tokens
        assert all(w == 1 for w in unfused.fusion_width)

    def test_serving_outputs_invariant_under_fusion(self, tiny_target, tiny_draft):
        workload = serving_workload()
        reports = {}
        for cap in (1, 8):
            backend = FunctionalBackend(tiny_target, tiny_draft, n_cells=4096)
            reports[cap] = run_serving(
                PipeInferEngine, backend, cluster_c(4), workload,
                functional_cfg(max_fused_runs=cap),
            )
        assert reports[8].outputs() == reports[1].outputs()
        assert all(w == 1 for w in reports[1].fusion_width)

    def test_serving_load_actually_fuses(self, tiny_target, tiny_draft):
        backend = FunctionalBackend(tiny_target, tiny_draft, n_cells=4096)
        report = run_serving(
            PipeInferEngine, backend, cluster_c(4), serving_workload(),
            functional_cfg(),
        )
        assert max(report.fusion_width) > 1, (
            f"no multi-run windows under serving load: {report.fusion_width}"
        )
        assert report.stats.fused_batches > 0
        assert report.stats.fused_runs >= 2 * report.stats.fused_batches
        # Fused or not, every dispatched run completes exactly once.
        assert report.stats.completed == report.stats.dispatched


class SlowStageBackend(OracleBackend):
    """Oracle backend with long, fixed compute chunks: a fused window
    spans 0.2 simulated seconds, so control messages sent on receipt of
    the previous window's logits are guaranteed to land mid-window."""

    def stage_chunks(self, node, layer_range, n_tokens):
        return [0.05] * 4


class TestMidFusionCancellation:
    def test_cancel_landing_mid_window_skips_only_that_run(self):
        """Two speculative runs fuse into one window; a cancel for the
        second arrives while the window is being evaluated.  The cancelled
        run must drop out of the computation but keep its slot: logits
        records still come back for both runs, in dispatch order."""
        kernel = SimKernel()
        cluster = cluster_c(2)
        net = Network(kernel, cluster)
        backend = SlowStageBackend(
            get_pair("dolphin+tinyllama"), head_node=cluster.nodes[0]
        )
        metrics = MetricsCollector()
        ws = backend.make_worker_state(1, (0, backend.n_target_layers), True, True)
        proc = kernel.spawn(
            pipeline_worker(
                net=net, rank=1, upstream=0, downstream=None, head_rank=0,
                backend=backend, ws=ws, node=cluster.nodes[1], metrics=metrics,
            ),
            name="worker-1",
        )
        got = []
        chain = [1, 2, 3, 5, 6, 7, 8]

        def head():
            ep = net.endpoint(0)
            # A leading run occupies the worker (its window spans 0.2s of
            # simulated time) while runs 2 and 3 land in its mailbox, so
            # they are drained into one fused window together.
            send_transaction(ep, 1, TransactionType.DECODE,
                             decode_pieces(backend, 1, [3], 2, 0, False, chain))
            yield Delay(0.01)
            send_transaction(ep, 1, TransactionType.DECODE,
                             decode_pieces(backend, 2, [5, 6], 3, 2, True, chain))
            send_transaction(ep, 1, TransactionType.DECODE,
                             decode_pieces(backend, 3, [7, 8], 5, 3, True, chain))
            # Window 2 runs over roughly [0.21, 0.41]; a cancel sent at
            # 0.30 lands between its compute chunks.
            yield Delay(0.29)
            ep.send(CancelMsg(3), 1, Tag.CANCEL, nbytes=16.0, eager=True)
            for _ in range(3):
                msg = yield from recv(ep, 1, Tag.LOGITS)
                got.append(msg.payload)
            send_transaction(ep, 1, TransactionType.SHUTDOWN,
                             [(ShutdownMsg(), 8.0)], eager=True)

        h = kernel.spawn(head(), name="head")
        run_to_completion(kernel, [proc, h])
        assert [p.run_id for p in got] == [1, 2, 3]
        assert not got[0].cancelled and not got[1].cancelled
        assert got[2].cancelled
        assert got[2].logits == []
        assert metrics.stats.worker_layer_evals_skipped > 0
        # Runs 2 and 3 were evaluated as one fused window.
        hist = metrics.fusion_width.get(1, {})
        assert hist.get(2, 0) >= 1, f"expected a width-2 window, got {hist}"
        # ... and charged one stage time (4 x 0.05 s) for both runs: the
        # two windows' chunks plus output-head time stay under the 0.6 s
        # that three per-run stage passes would cost.
        assert 0.4 <= metrics.busy_time[1] < 0.6
        # The cancelled run wrote no cells; the surviving fused run did.
        assert ws.cache.has_entry(2, 3)
        assert not ws.cache.has_entry(3, 5)


class TestBoundedAdmission:
    def test_closed_loop_outputs_under_static_admission(
        self, tiny_target, tiny_draft
    ):
        """A bounded functional cache makes the static cell budget queue a
        closed-loop burst; every request still emits exactly its greedy
        single-node tokens and the cache never overflows (overflow would
        raise KVCacheError and deadlock the simulation)."""
        kinds = ("wikitext", "code", "explain", "paper", "roleplay")
        jobs = tuple(
            GenerationJob(prompt=make_prompt(kinds[i % len(kinds)], length=24,
                                             vocab=128), n_generate=12)
            for i in range(6)
        )
        cfg = functional_cfg(n_seq_partitions=16, lookahead_cap=8)
        report = run_serving(
            PipeInferEngine,
            FunctionalBackend(tiny_target, tiny_draft, n_cells=120),
            cluster_c(3), Workload(jobs=jobs), cfg,
        )
        assert sum(r.queue_wait for r in report.requests) > 0, (
            "workload never queued: test is vacuous"
        )
        for i, job in enumerate(jobs):
            reference = run_engine(
                SingleNodeEngine,
                FunctionalBackend(tiny_target, tiny_draft, n_cells=512),
                cluster_c(1), job, cfg,
            )
            assert report.outputs()[i] == reference.tokens

    def test_oracle_mode_bounded_admission(self):
        """An oracle backend with a cell budget throttles admission through
        the same CellBudget machinery and still completes every request."""
        cluster = cluster_c(3)
        pair = get_pair("dolphin+tinyllama")
        backend = OracleBackend(pair, head_node=cluster.nodes[0], n_cells=300)
        jobs = tuple(
            GenerationJob(prompt=make_prompt("wikitext", length=48,
                                             vocab=pair.target_arch.vocab),
                          n_generate=32)
            for _ in range(6)
        )
        report = run_serving(
            PipeInferEngine, backend, cluster, Workload(jobs=jobs)
        )
        assert report.token_counts() == {i: 32 for i in range(6)}
        assert sum(r.queue_wait for r in report.requests) > 0
