"""Chaos suite: seeded faults must never change what gets served.

The acceptance bar for the fault plane, asserted across multiple plan
seeds:

- under WAN loss + jitter + a mid-stream worker crash, every request
  still completes and every request's tokens are identical to the
  fault-free run (recovery is transparent, not approximate);
- the recovery machinery demonstrably fired: retransmissions, a worker
  restart, and re-prefilled tokens all appear in the ServingReport;
- an *empty* fault plan is byte-identical to running with no fault plane
  at all (the differential guarantee: the injector costs nothing when
  idle, and installing nothing changes nothing);
- a faulty run replays byte-identically from the same plan seed (the
  determinism contract extends to faults);
- the fault path is event-driven: a worker restart and a straggler
  window's end wake the serving head directly, and a faulty run costs a
  small multiple of the clean run's kernel events, not a poll per 0.2 ms;
- every engine recovers through the one head: a worker crash mid-decode
  leaves PipeInfer's and both baselines' tokens equal to single-node
  inference on real model math.
"""

import pytest

import repro.serve.head as serve_head
from repro import (
    EngineConfig,
    FaultPlan,
    FunctionalBackend,
    GenerationJob,
    IterativeEngine,
    OracleBackend,
    PipeInferEngine,
    SingleNodeEngine,
    SpeculativeEngine,
    Workload,
    cluster_c,
    get_pair,
    run_engine,
    run_serving,
)
from repro.faults import CrashSpec, LinkFault, StragglerSpec
from repro.serve import EngineCluster
from repro.workloads import (
    SharedPrefixTemplate,
    cloud_edge_arrivals,
    cloud_edge_cluster,
    cloud_edge_fault_plan,
    cloud_edge_prompts,
)

N_CLOUD, N_EDGE = 2, 2
N_REQ = 4


@pytest.fixture(scope="module")
def pair():
    return get_pair("dolphin+tinyllama")


@pytest.fixture(scope="module")
def workload(pair):
    jobs = tuple(
        GenerationJob(prompt=p, n_generate=16)
        for p in cloud_edge_prompts(N_REQ, pair.target_arch.vocab, length=32)
    )
    return Workload(jobs=jobs, arrivals=cloud_edge_arrivals(N_REQ, seed=21))


def serve(pair, workload, plan=None, cfg=None):
    backend = OracleBackend(pair, head_node=cloud_edge_cluster().nodes[0])
    return run_serving(
        PipeInferEngine,
        backend,
        cloud_edge_cluster(N_CLOUD, N_EDGE),
        workload,
        cfg,
        fault_plan=plan,
    )


@pytest.fixture(scope="module")
def baseline(pair, workload):
    """The fault-free run every chaos variant must reproduce exactly."""
    return serve(pair, workload)


def crash_plan(seed):
    """Loss + jitter on every WAN hop, one edge worker dying mid-stream."""
    return cloud_edge_fault_plan(
        seed=seed,
        n_cloud=N_CLOUD,
        n_edge=N_EDGE,
        loss_rate=0.05,
        crash_rank=N_CLOUD,  # first edge stage
        crash_at=1.0,
    )


def test_chain_starts_with_accepted_on_verify_through_recovery(
    pair, workload, baseline, verify_entry_checks
):
    """Crash recovery drops every request's drafts (``reconcile`` with
    the accepted length), so verification still finds each chain
    starting with its accepted stream after the restart."""
    rep = serve(pair, workload, crash_plan(seed=1))
    assert rep.outputs() == baseline.outputs()
    assert rep.stats.worker_restarts >= 1 and rep.stats.reprefilled_tokens > 0
    assert verify_entry_checks


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_loss_jitter_crash_transparent_across_seeds(pair, workload, baseline, seed):
    rep = serve(pair, workload, crash_plan(seed))
    assert rep.outputs() == baseline.outputs(), "faults changed served tokens"
    assert rep.token_counts() == baseline.token_counts()  # all completed
    s = rep.stats
    assert s.retransmits > 0, "5% WAN loss should have forced retransmits"
    assert s.worker_restarts >= 1
    assert s.reprefilled_tokens > 0, "restart must rebuild KV by re-prefill"


def test_empty_plan_is_byte_identical_to_no_injector(pair, workload, baseline):
    rep = serve(pair, workload, FaultPlan())
    assert rep.outputs() == baseline.outputs()
    assert rep.makespan == baseline.makespan  # simulated time, exact
    assert [r.ttft for r in rep.requests] == [r.ttft for r in baseline.requests]
    assert [r.finish_time for r in rep.requests] == [
        r.finish_time for r in baseline.requests
    ]
    s = rep.stats
    assert (s.retransmits, s.timeouts, s.worker_restarts) == (0, 0, 0)
    assert (s.reprefilled_tokens, s.degraded_windows) == (0, 0)


def test_faulty_run_replays_byte_identically(pair, workload):
    a = serve(pair, workload, crash_plan(seed=2))
    b = serve(pair, workload, crash_plan(seed=2))
    assert a.outputs() == b.outputs()
    assert a.makespan == b.makespan
    assert (a.stats.retransmits, a.stats.reprefilled_tokens) == (
        b.stats.retransmits,
        b.stats.reprefilled_tokens,
    )


def test_straggler_window_degrades_and_recovers(pair, workload, baseline):
    """A straggling stage slows the run and gates speculation (degraded
    windows are counted), but tokens never change."""
    plan = FaultPlan(
        stragglers=(StragglerSpec(rank=1, factor=4.0, start=0.5, end=40.0),)
    )
    rep = serve(pair, workload, plan)
    assert rep.outputs() == baseline.outputs()
    assert rep.stats.degraded_windows >= 1
    assert rep.makespan > baseline.makespan  # the slowdown is real


@pytest.fixture(scope="module")
def lone(pair):
    """One request, nothing else arriving: no traffic but its own runs."""
    prompt = cloud_edge_prompts(1, pair.target_arch.vocab, length=32)[0]
    return Workload(jobs=(GenerationJob(prompt=prompt, n_generate=16),))


def test_restart_wakes_head_when_every_run_was_lost(pair, lone):
    """The last stage dies while the lone request's prefill is in the
    pipeline and the link is lossless: the crash swallows the only run,
    so no logits will ever come back.  The restart itself must wake the
    parked head, or the simulation deadlocks."""
    clean = serve(pair, lone)
    crash = CrashSpec(
        N_CLOUD + N_EDGE - 1, at=clean.requests[0].prefill_end / 2, restart_delay=0.1
    )
    plan = FaultPlan(crashes=(crash,), rto=0.1)
    rep = serve(pair, lone, plan)  # StuckSimulationError without the wake
    assert rep.outputs() == clean.outputs()
    assert rep.stats.worker_restarts == 1
    assert rep.stats.reprefilled_tokens == len(lone.jobs[0].prompt)


def test_straggler_end_wakes_head_to_speculate(pair, lone, monkeypatch):
    """Degraded from t=0 until a window edge after the (slowed) prefill:
    one degraded window, and speculation resumes as soon as the window
    ends instead of when the next canonical logits happen to land."""
    plan = FaultPlan(stragglers=(StragglerSpec(rank=1, factor=2.0),))
    prefilled = serve(pair, lone, plan).requests[0].prefill_end
    end = prefilled + 5.0

    dispatched = []
    real = serve_head.dispatch_spec_burst

    def spy(engine, dispatches):
        dispatched.append(engine.net.kernel.now)
        return real(engine, dispatches)

    monkeypatch.setattr(serve_head, "dispatch_spec_burst", spy)
    plan = FaultPlan(stragglers=(StragglerSpec(rank=1, factor=2.0, end=end),))
    rep = serve(pair, lone, plan)
    assert rep.outputs() == serve(pair, lone).outputs()
    assert rep.stats.degraded_windows == 1
    assert dispatched and dispatched[0] > end
    # One draft step (~80 ms here) after the wake; the next canonical
    # logits would only have woken the head ~2 s later.
    assert dispatched[0] < end + 0.5


def test_faulty_run_costs_a_small_multiple_of_clean_events(pair, workload):
    """Deterministic cost pin: loss, jitter and a crash add retransmits,
    acks and a re-prefill — not a timer per idle poll."""

    def kernel_events(plan):
        backend = OracleBackend(pair, head_node=cloud_edge_cluster().nodes[0])
        cluster = EngineCluster(
            PipeInferEngine, [backend], [cloud_edge_cluster(N_CLOUD, N_EDGE)],
            fault_plans=[plan],
        )
        cluster.serve(workload)
        return cluster.replicas[0].kernel.n_events

    clean = kernel_events(None)
    for seed in (1, 2, 3):
        assert kernel_events(crash_plan(seed)) <= 3 * clean


def test_warm_recovery_through_prefix_cache(pair):
    """Crash recovery with the prefix cache on: shared-prefix requests may
    re-materialize cached prompt KV instead of cold re-prefilling, and the
    served tokens still match the fault-free cache-on run."""
    template = SharedPrefixTemplate(
        shared_len=48, unique_len=12, share_fraction=1.0, seed=5
    )
    jobs = tuple(
        GenerationJob(prompt=p, n_generate=12)
        for p in template.prompts(6, pair.target_arch.vocab)
    )
    workload = Workload(jobs=jobs, max_active=2)
    cfg = EngineConfig(n_seq_partitions=24, prefix_cache=True)
    clean = serve(pair, workload, cfg=cfg)
    plan = cloud_edge_fault_plan(
        seed=4, n_cloud=N_CLOUD, n_edge=N_EDGE, loss_rate=0.02,
        crash_rank=N_CLOUD + 1, crash_at=5.0,
    )
    faulty = serve(pair, workload, plan, cfg=cfg)
    assert faulty.outputs() == clean.outputs()
    assert faulty.stats.worker_restarts == 1
    assert faulty.stats.reprefilled_tokens > 0
    assert faulty.prefix_cache_stats.get("hit_tokens", 0) > 0


def test_functional_backend_under_loss(tiny_target, tiny_draft):
    """Real tiny-transformer math over a lossy link: retransmission is
    invisible to the numerics — served tokens match the clean run."""
    from repro import FunctionalBackend
    from repro.spec.draft import DraftParams

    cfg = EngineConfig(
        draft=DraftParams(max_tokens=4, cutoff=0.02),
        cutoff_recovery=0.01,
        cutoff_decay=0.01,
    )
    jobs = tuple(
        GenerationJob(prompt=tuple(5 + p + i for p in range(8)), n_generate=10)
        for i in range(3)
    )
    workload = Workload(jobs=jobs)

    def run(plan):
        backend = FunctionalBackend(tiny_target, tiny_draft, n_cells=2048)
        return run_serving(
            PipeInferEngine, backend, cluster_c(3), workload, cfg,
            fault_plan=plan,
        )

    clean = run(None)
    plan = FaultPlan(
        seed=9,
        link_faults=(
            LinkFault(1, 2, loss_rate=0.1),
            LinkFault(2, 0, loss_rate=0.1),
        ),
        rto=0.05,
    )
    faulty = run(plan)
    assert faulty.outputs() == clean.outputs()
    assert faulty.stats.retransmits > 0


@pytest.mark.parametrize(
    "engine", [PipeInferEngine, IterativeEngine, SpeculativeEngine],
    ids=lambda e: e.name,
)
def test_worker_crash_mid_decode_recovers_every_engine(
    engine, tiny_target, tiny_draft, functional_config
):
    """A functional-backend worker crashes halfway through decode: the
    head flushes its runs, re-prefills the verified stream, and the
    served tokens still equal single-node inference."""
    job = GenerationJob(prompt=tuple(3 + 2 * i for i in range(8)), n_generate=28)

    def backend():
        return FunctionalBackend(tiny_target, tiny_draft, n_cells=512)

    reference = run_engine(SingleNodeEngine, backend(), cluster_c(1), job)
    workload = Workload(jobs=(job,))
    clean = run_serving(engine, backend(), cluster_c(4), workload, functional_config)
    req = clean.requests[0]
    plan = FaultPlan(
        crashes=(CrashSpec(2, at=(req.prefill_end + req.finish_time) / 2),)
    )
    rep = run_serving(
        engine, backend(), cluster_c(4), workload, functional_config,
        fault_plan=plan,
    )
    assert clean.outputs()[0] == reference.tokens
    assert rep.outputs()[0] == reference.tokens
    assert rep.stats.worker_restarts == 1
    assert rep.stats.reprefilled_tokens > 0
