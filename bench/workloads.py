"""The benchmark's four workloads.

Each workload is a pair of functions over one seed:

- ``prepare_<name>(seed, **sizes)`` builds every input: prompts, oracle
  seeds, fault plans.  This is the set-up a user pays before the first
  entry-point call, and it is what ``setup_s`` times.
- ``run_<name>(inputs, clock)`` makes the entry-point calls, each one
  timed by ``clock``, and returns a :class:`Result` of generated tokens
  and raw simulated observations.

:func:`expected` lists, from the inputs alone, every request a run must
answer and the greedy reference it must match; :func:`reference` computes
those references.  Sizes are keyword arguments of the ``prepare_*``
functions so the tests can call a tiny instance; the benchmark itself
uses the defaults, each sized to take about five seconds on a 2-core
x86 host.

Arrival traces are fixed per workload and do not follow the seed: in an
open loop the burst pattern of the trace, not the request content, sets
the latency tail, so a seeded trace would swing every tail metric by more
than any useful regression bound.  The seed drives everything else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import (
    ClusterConfig,
    EngineCluster,
    EngineConfig,
    FunctionalBackend,
    GenerationJob,
    OracleBackend,
    PipeInferEngine,
    ServingSession,
    SingleNodeEngine,
    SpeculativeEngine,
    TinyTransformer,
    TransformerConfig,
    Workload,
    cluster_c,
    get_pair,
    run_engine,
    run_serving,
)
from repro.cluster.testbed import make_testbed
from repro.experiments.fig4 import SUBFIGURES
from repro.models.oracle import OracleLM
from repro.models.transformer import perturbed_copy
from repro.spec.draft import DraftParams
from repro.util.rng import hash_tokens
from repro.workloads import (
    MultiTurnTemplate,
    cloud_edge_cluster,
    cloud_edge_fault_plan,
    multiturn_arrivals,
    poisson_arrivals,
)

WORKLOADS = ("single_paper", "functional_closed", "chat_open", "faulty_edge")

#: Seed of every fixed arrival trace (see the module docstring).
TRACE_SEED = 20240917

#: SLO tags of the open-loop workloads' requests.
TTFT_SLO = 15.0
ITL_SLO = 1.0


class Clock:
    """Host seconds spent inside entry-point calls.

    ``first_call`` is the ``time.monotonic()`` instant of the first call:
    the end of set-up.  ``tracer`` (a :class:`bench.tracer.Tracer`), when
    given, records each call as the root ``entry`` span.
    """

    def __init__(self, tracer=None) -> None:
        self.host_s = 0.0
        self.first_call: Optional[float] = None
        self.tracer = tracer

    def call(self, fn: Callable, *args, **kwargs):
        if self.first_call is None:
            self.first_call = time.monotonic()
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn(*args, **kwargs)
        else:
            with self.tracer.span("entry"):
                out = fn(*args, **kwargs)
        self.host_s += time.perf_counter() - t0
        return out


@dataclass
class Result:
    """What one workload instance produced.

    ``outputs`` maps a request key (see :func:`expected`) to its tokens.
    ``speeds`` are simulated generation rates (one per grid cell, or one
    per serving run), ``ttfts`` and ``gaps`` the simulated first-token
    latencies and inter-token gaps of the run's latency population.
    ``speedups`` are PipeInfer over Speculative per grid cell, ``slo``
    maps a ladder request's key to its ``(ttft, mean_itl)``, ``faults``
    counts what the fault plane did, and ``layer`` carries the per-layer
    quantities the reports already hold.
    """

    outputs: Dict[str, List[int]]
    host_s: float
    speeds: List[float]
    ttfts: List[float]
    gaps: List[float]
    speedups: List[float] = field(default_factory=list)
    slo: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)
    layer: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def seeded_prompt(seed: int, index: int, length: int, vocab: int) -> Tuple[int, ...]:
    """A deterministic prompt; ids avoid the reserved low range."""
    return tuple(
        16 + hash_tokens(seed, (index, i), salt=31) % (vocab - 16) for i in range(length)
    )


def oracle_reference(prompt: Sequence[int], n_generate: int, seed: int, vocab: int) -> List[int]:
    """Greedy continuation of ``prompt`` under the oracle target model."""
    lm = OracleLM(seed=seed, vocab=vocab)
    state = lm.init_state(prompt)
    out = []
    for _ in range(n_generate):
        tok = lm.next_token_from_state(state)
        out.append(tok)
        state = lm.advance(state, tok)
    return out


def _add_layer(into: Dict[str, object], report) -> None:
    """Accumulate a report's run statistics and histograms into ``into``."""
    stats = report.stats
    part = {
        "spec_runs": stats.speculative,
        "cancelled_invalid": stats.cancelled_invalid,
        "draft_proposed": stats.draft_tokens_proposed,
        "draft_accepted": stats.draft_tokens_accepted,
        "draft_checked": stats.draft_tokens_checked,
        "cancel_signals": stats.cancel_signals_sent,
        "layer_evals_skipped": stats.worker_layer_evals_skipped,
        "retransmits": stats.retransmits,
        "timeouts": stats.timeouts,
        "degraded_windows": stats.degraded_windows,
        "fused_width_sum": sum(w * c for w, c in report.fusion_width.items()),
        "fused_windows": sum(report.fusion_width.values()),
        "draft_width_sum": sum(w * c for w, c in report.draft_batch_width.items()),
        "draft_passes": sum(report.draft_batch_width.values()),
        "utilization_sum": report.utilization,
        "utilization_n": 1,
    }
    into.update((key, into.get(key, 0) + val) for key, val in part.items())


def _serving_layer(report) -> Dict[str, object]:
    """Per-layer quantities of a serving report (merged, for a cluster)."""
    layer: Dict[str, object] = {}
    _add_layer(layer, report)
    cache = report.prefix_cache_stats
    layer.update(
        prefix_hit_tokens=report.prefix_hit_tokens,
        prompt_tokens=sum(r.prompt_tokens for r in report.requests),
        evictions=cache.get("evictions", 0),
        donated_tokens=cache.get("donated_tokens", 0),
        queue_waits=[r.queue_wait for r in report.requests],
    )
    return layer


# ---------------------------------------------------------------------------
# single_paper: the Fig. 4 grid, one sequential client
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinglePaperInputs:
    #: (pair key, node count) -> (prompt, oracle seed), one per grid cell.
    cells: Dict[Tuple[str, int], Tuple[Tuple[int, ...], int]]
    n_generate: int


def prepare_single_paper(
    seed: int,
    node_counts: Sequence[int] = (4, 8, 15, 32),
    pairs: Optional[Sequence[str]] = None,
    prompt_len: int = 128,
    n_generate: int = 48,
) -> SinglePaperInputs:
    """Fig. 4's six CPU pairs on testbed C, PipeInfer and Speculative.

    Every cell draws its own prompt and oracle seed, so one run averages
    over 24 independent token sequences instead of six.
    """
    if pairs is None:
        pairs = [key for group in SUBFIGURES.values() for key, _ in group]
    cells = {}
    for n in node_counts:
        for key in pairs:
            index = len(cells)
            cells[(key, n)] = (
                seeded_prompt(seed, index, prompt_len, get_pair(key).target_arch.vocab),
                hash_tokens(seed, (index,), salt=41) & 0xFFFFFFFF,
            )
    return SinglePaperInputs(cells, n_generate)


def run_single_paper(inputs: SinglePaperInputs, clock: Clock) -> Result:
    result = Result({}, 0.0, [], [], [])
    for (key, n), (prompt, oracle_seed) in inputs.cells.items():
        cluster = make_testbed("C", n)
        job = GenerationJob(prompt=prompt, n_generate=inputs.n_generate)
        reports = {}
        for label, engine in (("pipe", PipeInferEngine), ("spec", SpeculativeEngine)):
            backend = OracleBackend(get_pair(key), head_node=cluster.nodes[0], seed=oracle_seed)
            reports[label] = clock.call(run_engine, engine, backend, cluster, job)
            result.outputs[f"{label}/{key}/{n}"] = reports[label].tokens
        pipe = reports["pipe"]
        result.speeds.append(pipe.generation_speed)
        result.speedups.append(pipe.generation_speed / reports["spec"].generation_speed)
        # An EngineReport carries a run's mean inter-token gap, not each gap.
        result.ttfts.append(pipe.ttft)
        result.gaps.append(pipe.itl)
        _add_layer(result.layer, pipe)
    result.host_s = clock.host_s
    return result


# ---------------------------------------------------------------------------
# functional_closed: real model math, closed loop
# ---------------------------------------------------------------------------

#: The tiny target model; its weights are fixed, the prompts follow the seed.
MODEL_CFG = TransformerConfig(
    vocab=128, d_model=32, n_layers=4, n_heads=4, n_kv_heads=2, d_ff=64, seed=7
)

#: Functional-mode engine knobs: the cutoff admits the tiny draft's flat
#: confidences, and 24 partitions hold 16 live requests' speculation.
FUNCTIONAL_CFG = EngineConfig(
    draft=DraftParams(max_tokens=4, cutoff=0.02),
    cutoff_recovery=0.01,
    cutoff_decay=0.01,
    n_seq_partitions=24,
)


@dataclass(frozen=True)
class FunctionalInputs:
    prompts: Tuple[Tuple[int, ...], ...]
    n_generate: int
    max_active: int
    target: TinyTransformer
    draft: TinyTransformer


def prepare_functional_closed(
    seed: int,
    n_requests: int = 96,
    n_generate: int = 64,
    max_active: int = 16,
    min_prompt: int = 64,
) -> FunctionalInputs:
    """TinyTransformer serving, 16 clients in a closed loop, cache off."""
    prompts = tuple(
        seeded_prompt(seed, i, min_prompt + hash_tokens(seed, (i,), salt=37) % 16,
                      MODEL_CFG.vocab)
        for i in range(n_requests)
    )
    target = TinyTransformer(MODEL_CFG)
    draft = perturbed_copy(target, noise=0.15, seed=9)
    return FunctionalInputs(prompts, n_generate, max_active, target, draft)


def run_functional_closed(inputs: FunctionalInputs, clock: Clock) -> Result:
    jobs = tuple(GenerationJob(prompt=p, n_generate=inputs.n_generate) for p in inputs.prompts)
    backend = FunctionalBackend(inputs.target, inputs.draft, n_cells=4096)
    report = clock.call(
        run_serving, PipeInferEngine, backend, cluster_c(4),
        Workload(jobs=jobs, max_active=inputs.max_active), FUNCTIONAL_CFG,
    )
    return Result(
        outputs={str(r.req_id): r.tokens for r in report.requests},
        host_s=clock.host_s,
        speeds=[report.goodput],
        ttfts=[r.ttft for r in report.requests],
        gaps=[g for r in report.requests for g in r.itl_samples],
        layer=_serving_layer(report),
    )


# ---------------------------------------------------------------------------
# chat_open: multi-turn chat over two replicas, open loop, rate ladder
# ---------------------------------------------------------------------------

CHAT_PAIR = "dolphin+tinyllama"
CHAT_TURNS = 4


@dataclass(frozen=True)
class ChatInputs:
    seed: int
    prompts: Tuple[Tuple[int, ...], ...]
    sessions: Tuple[int, ...]
    #: session rate -> arrival trace aligned with ``prompts``.
    ladder: Dict[float, Tuple[float, ...]]
    nominal: float
    n_generate: int


def prepare_chat_open(
    seed: int,
    n_sessions: int = 24,
    n_generate: int = 48,
    rates: Sequence[float] = (0.0025, 0.005, 0.0075, 0.01),
    nominal: float = 0.005,
) -> ChatInputs:
    """Multi-turn chat (system 96, turn 32, 4 turns) on two replicas."""
    template = MultiTurnTemplate(system_len=96, turn_len=32, n_turns=CHAT_TURNS, seed=seed)
    ladder = {
        rate: multiturn_arrivals(
            n_sessions, CHAT_TURNS, turn_gap=60.0, session_rate=rate, seed=TRACE_SEED
        )
        for rate in rates
    }
    return ChatInputs(
        seed,
        template.prompts(n_sessions, get_pair(CHAT_PAIR).target_arch.vocab),
        template.sessions(n_sessions),
        ladder,
        nominal,
        n_generate,
    )


def _serve_chat(inputs: ChatInputs, arrivals: Sequence[float], clock: Clock):
    """One rung: submit the trace to a fresh session; (report, streams)."""
    pair = get_pair(CHAT_PAIR)
    cluster = clock.call(
        EngineCluster,
        PipeInferEngine,
        lambda: OracleBackend(pair, head_node=cluster_c(4).nodes[0], seed=inputs.seed),
        lambda: cluster_c(4),
        cluster_config=ClusterConfig(n_replicas=2, routing="prefix_affinity", affinity="session"),
        config=EngineConfig(n_seq_partitions=24, prefix_cache=True, prefix_cache_cells=2048),
    )
    session = clock.call(ServingSession, cluster)
    streams = {}
    for i in sorted(range(len(arrivals)), key=lambda i: (arrivals[i], i)):
        job = GenerationJob(prompt=inputs.prompts[i], n_generate=inputs.n_generate)
        streams[i] = clock.call(
            session.submit, job, arrival=arrivals[i], ttft_slo=TTFT_SLO,
            itl_slo=ITL_SLO, session=inputs.sessions[i],
        )
    return clock.call(session.report), streams


def run_chat_open(inputs: ChatInputs, clock: Clock) -> Result:
    result = Result({}, 0.0, [], [], [])
    for rate, arrivals in inputs.ladder.items():
        report, streams = _serve_chat(inputs, arrivals, clock)
        merged = report.merged
        by_id = {r.req_id: r for r in merged.requests}
        for i, stream in streams.items():
            req = by_id[stream.req_id]
            result.outputs[f"{rate}/{i}"] = stream.tokens
            result.slo[f"{rate}/{i}"] = (req.ttft, req.itl)
        if rate == inputs.nominal:
            result.speeds.append(merged.goodput)
            result.ttfts = [r.ttft for r in merged.requests]
            result.gaps = [g for r in merged.requests for g in r.itl_samples]
            result.layer = _serving_layer(merged)
            result.layer["session_affinity_hits"] = report.session_affinity_hits
    result.host_s = clock.host_s
    return result


# ---------------------------------------------------------------------------
# faulty_edge: cloud-edge pipeline over a lossy WAN with a worker crash
# ---------------------------------------------------------------------------

#: A 33B target on three cloud Xeons and one edge Optiplex.  On the
#: fault path every simulated second an active request spends costs host
#: time (the serving head polls the health monitor), so the pair and the
#: split are chosen for short simulated service times: about 320 tokens
#: per five-second sample, where Dolphin-70B on two edge nodes fits 32.
EDGE_PAIR = "qwen+7b"


@dataclass(frozen=True)
class EdgeInputs:
    seed: int
    prompts: Tuple[Tuple[int, ...], ...]
    arrivals: Tuple[float, ...]
    n_generate: int
    plan: object


def prepare_faulty_edge(
    seed: int,
    n_requests: int = 20,
    n_generate: int = 16,
    prompt_len: int = 24,
    rate: float = 0.05,
) -> EdgeInputs:
    """Requests on ``cloud_edge_cluster(3, 1)``: 5% WAN loss, one crash.

    Arrivals are Poisson at 0.05 requests per simulated second; a request
    takes about 17 simulated seconds, so the pipeline is busy about two
    thirds of the time.
    """
    vocab = get_pair(EDGE_PAIR).target_arch.vocab
    prompts = tuple(seeded_prompt(seed, i, prompt_len + i % 8, vocab) for i in range(n_requests))
    arrivals = poisson_arrivals(rate, n_requests, seed=TRACE_SEED)
    # The first request's prefill takes about 8 sim seconds; the edge
    # worker crashes just after it, while the request decodes.
    plan = cloud_edge_fault_plan(
        seed=seed, n_cloud=3, n_edge=1, loss_rate=0.05, crash_rank=3,
        crash_at=arrivals[0] + 9.0,
    )
    return EdgeInputs(seed, prompts, arrivals, n_generate, plan)


def run_faulty_edge(inputs: EdgeInputs, clock: Clock) -> Result:
    n = len(inputs.prompts)
    workload = Workload(
        jobs=tuple(GenerationJob(prompt=p, n_generate=inputs.n_generate) for p in inputs.prompts),
        arrivals=inputs.arrivals,
        ttft_slos=(TTFT_SLO,) * n,
        itl_slos=(ITL_SLO,) * n,
    )
    backend = OracleBackend(
        get_pair(EDGE_PAIR), head_node=cloud_edge_cluster(3, 1).nodes[0], seed=inputs.seed
    )
    report = clock.call(
        run_serving, PipeInferEngine, backend, cloud_edge_cluster(3, 1), workload,
        EngineConfig(n_seq_partitions=24), fault_plan=inputs.plan,
    )
    stats = report.stats
    return Result(
        outputs={str(r.req_id): r.tokens for r in report.requests},
        host_s=clock.host_s,
        speeds=[report.goodput],
        ttfts=[r.ttft for r in report.requests],
        gaps=[g for r in report.requests for g in r.itl_samples],
        faults={
            "retransmits": stats.retransmits,
            "reprefilled_tokens": stats.reprefilled_tokens,
            "worker_restarts": stats.worker_restarts,
        },
        layer=_serving_layer(report),
    )


# ---------------------------------------------------------------------------
# Registry and ground truth
# ---------------------------------------------------------------------------

PREPARE = {
    "single_paper": prepare_single_paper,
    "functional_closed": prepare_functional_closed,
    "chat_open": prepare_chat_open,
    "faulty_edge": prepare_faulty_edge,
}

RUN = {
    "single_paper": run_single_paper,
    "functional_closed": run_functional_closed,
    "chat_open": run_chat_open,
    "faulty_edge": run_faulty_edge,
}


def expected(name: str, inputs) -> Dict[str, Tuple[str, str]]:
    """Every request a run must answer: key -> (reference key, phase).

    The phase (a grid cell, a ladder rung) groups requests for per-phase
    attempted/failed accounting.
    """
    if name == "single_paper":
        return {
            f"{label}/{key}/{n}": (f"{key}/{n}", f"{key}/{n}")
            for key, n in inputs.cells
            for label in ("pipe", "spec")
        }
    if name == "chat_open":
        return {
            f"{rate}/{i}": (str(i), f"rate={rate}")
            for rate in inputs.ladder
            for i in range(len(inputs.prompts))
        }
    return {str(i): (str(i), name) for i in range(len(inputs.prompts))}


def reference(name: str, inputs) -> Dict[str, List[int]]:
    """Greedy reference tokens, keyed by :func:`expected`'s reference keys.

    Oracle workloads follow the target oracle's greedy chain; the
    functional workload runs each prompt on ``SingleNodeEngine`` with one
    node, the ground truth of the zero-deviation suite.
    """
    if name == "single_paper":
        return {
            f"{key}/{n}": oracle_reference(
                prompt, inputs.n_generate, oracle_seed, get_pair(key).target_arch.vocab
            )
            for (key, n), (prompt, oracle_seed) in inputs.cells.items()
        }
    if name == "functional_closed":
        return {
            str(i): run_engine(
                SingleNodeEngine,
                FunctionalBackend(inputs.target, inputs.draft, n_cells=512),
                cluster_c(1),
                GenerationJob(prompt=prompt, n_generate=inputs.n_generate),
                FUNCTIONAL_CFG,
            ).tokens
            for i, prompt in enumerate(inputs.prompts)
        }
    vocab = get_pair(CHAT_PAIR if name == "chat_open" else EDGE_PAIR).target_arch.vocab
    return {
        str(i): oracle_reference(prompt, inputs.n_generate, inputs.seed, vocab)
        for i, prompt in enumerate(inputs.prompts)
    }
