"""Shared engine machinery: configuration and wiring.

An *engine* is one inference strategy.  Every engine runs every target
stage in the pipeline worker (:mod:`repro.engines.worker`) and is served
by the one head loop (:func:`repro.serve.head.serving_head`), which holds
no layers.  Engines differ in their rank layout and in their head
policy: ``synchronous`` and :meth:`BaseEngine.hosts_draft`.  A
:class:`BaseEngine` handles the common wiring: rank layout, layer
partitioning, worker state and node memory.  It sends nothing itself:
the head sends each transaction kind through its one sender in
:mod:`repro.comm.transactions`, the same sender the workers use.
:func:`run_engine` runs one generation job as a one-request queue on a
fresh :class:`~repro.serve.cluster.Replica` and returns an
:class:`EngineReport`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.cluster.kernel import SimKernel
from repro.cluster.topology import Cluster
from repro.comm.mpi_sim import Endpoint, Network
from repro.engines.backend import Backend
from repro.engines.worker import DEFAULT_MAX_FUSED_RUNS, pipeline_worker
from repro.metrics.collectors import MetricsCollector, RunStats
from repro.metrics.report import EngineReport
from repro.pipeline.partition import partition_for
from repro.spec.draft import DraftParams


@dataclass(frozen=True)
class EngineConfig:
    """Algorithm knobs shared by all engines.

    PipeInfer-specific fields (Section IV): micro-batch size, the number
    of KV sequence partitions, the reactive-cutoff factors, and the
    ablation switches for Figure 8.  They apply alike to a single job and
    to a served stream, which run through the same head.  Serving
    admission is not a knob: it charges each request its static
    worst-case cell demand against the worker capacity
    (:class:`repro.core.multibuffer.CellBudget`).
    """

    draft: DraftParams = field(default_factory=DraftParams)
    #: KV-cache sequence partitions available to speculative runs (IV-C).
    n_seq_partitions: int = 8
    #: Continuous-speculation micro-batch size, 1-4 in the paper (IV-B1).
    microbatch_size: int = 4
    #: Maximum drafted-but-unverified chain length before drafting pauses.
    lookahead_cap: int = 16
    #: Confidence-cutoff recovery factor (IV-B2): added per successful
    #: continuous-speculation iteration, reset on run acceptance.
    cutoff_recovery: float = 0.06
    #: Confidence-cutoff decay factor (IV-B2): subtracted once per draft
    #: round the cutoff halts before its first proposal.
    cutoff_decay: float = 0.03
    #: Figure 8 ablation switches.
    enable_cancellation: bool = True
    enable_continuous: bool = True
    #: Cap on decode runs a pipeline stage fuses into one cross-run batch
    #: (1 disables multi-run batching; ablation / differential testing).
    #: Runs stop joining a window sooner once it holds the stage's
    #: roofline ridge in tokens (:meth:`Backend.fusion_ridge`).
    max_fused_runs: int = DEFAULT_MAX_FUSED_RUNS
    #: Cap on request chains the serving head drafts per batched draft
    #: round (1 restores sequential one-request-at-a-time drafting; the
    #: differential suite pins both to identical served tokens).
    max_draft_batch: int = 8
    #: Cross-request KV prefix caching (serving mode): completed requests
    #: donate their verified prompt KV into a radix tree of retained pool
    #: sequences; later requests materialize matching prefixes by
    #: pipelined ``seq_cp``/``seq_broadcast`` transactions and prefill
    #: only the unmatched tail (see :mod:`repro.cache.prefix`).
    prefix_cache: bool = False
    #: Retained-cell budget for the prefix cache; LRU leaf eviction keeps
    #: the tree at or below it (and always yields to admission pressure).
    prefix_cache_cells: int = 1024
    #: Shortest prefix match (and donated span) worth a cache-op
    #: transaction; shorter matches prefill from scratch.
    min_match_tokens: int = 8

    def __post_init__(self) -> None:
        if self.microbatch_size < 1:
            raise ValueError(
                f"microbatch_size must be positive, got {self.microbatch_size}"
            )
        if self.n_seq_partitions < 1:
            raise ValueError(
                f"n_seq_partitions must be positive, got {self.n_seq_partitions}"
            )
        if self.lookahead_cap < 1:
            raise ValueError(
                f"lookahead_cap must be positive, got {self.lookahead_cap}"
            )
        if self.cutoff_recovery < 0:
            raise ValueError(
                f"cutoff_recovery must be non-negative, got {self.cutoff_recovery}"
            )
        if self.cutoff_decay < 0:
            raise ValueError(
                f"cutoff_decay must be non-negative, got {self.cutoff_decay}"
            )
        if self.max_fused_runs < 1:
            raise ValueError(
                f"max_fused_runs must be positive, got {self.max_fused_runs}"
            )
        if self.max_draft_batch < 1:
            raise ValueError(
                f"max_draft_batch must be positive, got {self.max_draft_batch}"
            )
        if self.prefix_cache_cells < 1:
            raise ValueError(
                f"prefix_cache_cells must be positive, got {self.prefix_cache_cells}"
            )
        if self.min_match_tokens < 1:
            raise ValueError(
                f"min_match_tokens must be positive, got {self.min_match_tokens}"
            )

    def ablated(self, **changes) -> "EngineConfig":
        """A copy with the given fields replaced (ablation studies)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class GenerationJob:
    """One generation request."""

    prompt: Tuple[int, ...]
    n_generate: int = 256

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must not be empty")
        if self.n_generate < 1:
            raise ValueError("must generate at least one token")


class BaseEngine:
    """Common wiring for pipeline engines."""

    name = "base"
    #: Head policy: a synchronous engine keeps one request active and
    #: never speculates asynchronously (the paper's baselines).
    synchronous = True

    def __init__(
        self,
        backend: Backend,
        network: Network,
        config: EngineConfig,
        metrics: MetricsCollector,
    ) -> None:
        self.backend = backend
        self.net = network
        self.cluster = network.cluster
        self.config = config
        self.metrics = metrics
        #: Per-request reports, populated by the serving head.
        self.request_reports: List = []
        #: req_id -> the request's own collector (its timeline and head
        #: stats), populated by the serving head.
        self.request_metrics: Dict[int, MetricsCollector] = {}
        self._next_run_id = 0
        #: Fault plumbing — populated only by :mod:`repro.faults` runs.
        #: ``injector`` stays None on fault-free simulations.
        #: ``_fault_events`` holds worker restarts awaiting recovery; the
        #: injector wakes a parked serving head when it posts one, and the
        #: head drains the list with a single falsy check per loop
        #: iteration.
        self.injector = None
        self._fault_events: List[Tuple[str, int]] = []
        #: Mid-flight cancellation inbox: request ids whose clients
        #: disconnected.  The serving head drains it each step; unknown
        #: ids are ignored, so a cluster front-end may broadcast a cancel
        #: to every replica without tracking placement.
        self._cancel_requests: List[int] = []
        #: Streaming hook — a :class:`repro.api.stream.StreamHub` when a
        #: front-end wants per-request token streams, else None.  A pure
        #: observer: the simulation never reads it.
        self.stream_hub = None
        self._worker_procs: dict = {}
        self._procs: List = []
        #: The smallest fusion ridge on the pipeline (None: no stage has
        #: one), set when the workers spawn.  The head packs its burst
        #: transactions under it (:func:`repro.core.head.dispatch_burst`).
        self.fusion_ridge: Optional[int] = None

    # -- rank layout (overridden by PipeInfer) --------------------------------

    def target_ranks(self) -> List[int]:
        """Ranks evaluating target-model layers, pipeline order."""
        return list(range(self.cluster.size))

    def head_rank(self) -> int:
        return 0

    def hosts_draft(self) -> bool:
        """Whether the head node holds the draft model."""
        return False

    def partition(self) -> List[Tuple[int, int]]:
        """Layer ranges per target rank (bandwidth-weighted)."""
        ranks = self.target_ranks()
        nodes = [self.cluster.nodes[r] for r in ranks]
        return partition_for(self.backend.n_target_layers, nodes)

    # -- spawn -------------------------------------------------------------------

    def _spawn_workers(self, kernel: SimKernel):
        """Spawn a pipeline worker on every target rank (a baseline's rank 0 too)."""
        ranks = self.target_ranks()
        parts = self.partition()
        procs = []
        self._kernel = kernel
        self._worker_states = {}
        self._worker_procs = {}
        for i, rank in enumerate(ranks):
            first = i == 0
            last = i == len(ranks) - 1
            ws = self.backend.make_worker_state(rank, parts[i], first, last)
            self._worker_states[rank] = ws
            proc = self._spawn_worker_proc(kernel, i, rank, ws)
            self._worker_procs[rank] = proc
            procs.append(proc)
        ridges = (
            self.backend.fusion_ridge(self.cluster.nodes[rank], part)
            for rank, part in zip(ranks, parts)
        )
        self.fusion_ridge = min((r for r in ridges if r is not None), default=None)
        return procs

    def _spawn_worker_proc(self, kernel: SimKernel, i: int, rank: int, ws):
        """Spawn one pipeline-worker process for stage index ``i``."""
        ranks = self.target_ranks()
        upstream = ranks[i - 1] if i > 0 else self.head_rank()
        downstream = ranks[i + 1] if i + 1 < len(ranks) else None
        return kernel.spawn(
            pipeline_worker(
                net=self.net,
                rank=rank,
                upstream=upstream,
                downstream=downstream,
                head_rank=self.head_rank(),
                backend=self.backend,
                ws=ws,
                node=self.cluster.nodes[rank],
                metrics=self.metrics,
                max_fuse=self.config.max_fused_runs,
                injector=self.injector,
            ),
            name=f"worker-{rank}",
        )

    def respawn_worker(self, rank: int):
        """Bring a crashed worker back with a fresh process and empty KV.

        The stage's worker state is rebuilt from scratch (the crash lost the
        in-memory KV shard), the replacement process joins the liveness set
        tracked by ``run_to_completion``, and the serving head is expected
        to re-prefill every live request's verified tokens afterwards.
        """
        ranks = self.target_ranks()
        i = ranks.index(rank)
        parts = self.partition()
        first = i == 0
        last = i == len(ranks) - 1
        ws = self.backend.make_worker_state(rank, parts[i], first, last)
        self._worker_states[rank] = ws
        proc = self._spawn_worker_proc(self._kernel, i, rank, ws)
        self._worker_procs[rank] = proc
        self._procs.append(proc)
        return proc

    def spawn_serving(self, kernel: SimKernel, scheduler):
        """Spawn the workers plus the request-serving head.

        ``scheduler`` is the replica's
        :class:`repro.serve.scheduler.RequestScheduler`, into which the
        cluster driver pushes requests one at a time; the pipeline stays up
        until the queue is closed and every request has completed.
        """
        from repro.serve.head import serving_head  # cycle avoidance

        procs = self._spawn_workers(kernel)
        procs.append(kernel.spawn(serving_head(self, scheduler), name="serve-head"))
        self._procs = procs
        self._record_memory()
        return procs

    def _record_memory(self) -> None:
        ranks = self.target_ranks()
        parts = self.partition()
        for rank in range(self.cluster.size):
            layer_range = None
            first = last = False
            if rank in ranks:
                i = ranks.index(rank)
                layer_range = parts[i]
                first, last = i == 0, i == len(ranks) - 1
            hosts_draft = rank == self.head_rank() and self.hosts_draft()
            self.metrics.set_node_memory(
                rank, self.backend.node_memory(layer_range, hosts_draft, first, last)
            )

    # -- head helpers -----------------------------------------------------------

    def new_run_id(self) -> int:
        self._next_run_id += 1
        return self._next_run_id

    def worker_cells_used(self) -> int:
        """Largest live cells-in-use count across the worker KV shards.

        A test probe: the cancellation suite asserts through it that the
        worker KV shards return to their baseline occupancy once every
        request has released its partitions.  Per shard, ``n_used`` is
        O(1) for the functional :class:`KVCache` and an O(active
        sequences) interval sum for the performance-mode
        :class:`RangeKVCache`; shards whose cache does not expose a usage
        count contribute nothing.
        """
        used = 0
        for ws in getattr(self, "_worker_states", {}).values():
            n = getattr(ws.cache, "n_used", None)
            if n is not None:
                used = max(used, int(n))
        return used

    def ep(self) -> Endpoint:
        return self.net.endpoint(self.head_rank())

    def cancel_request(self, req_id: int) -> None:
        """Signal a mid-flight client disconnect for ``req_id``.

        Queues the id for the serving head's next step and wakes a parked
        head.  Safe to call for requests this engine never saw (no-op) —
        front-ends broadcast cancels cluster-wide.
        """
        self._cancel_requests.append(req_id)
        self.ep()._notify_watchers()


def run_engine(
    engine_factory,
    backend: Backend,
    cluster: Cluster,
    job: GenerationJob,
    config: Optional[EngineConfig] = None,
) -> EngineReport:
    """Build a fresh simulation, run one generation, return its report.

    A single job is the one-request case of the serving driver: one
    :class:`~repro.serve.cluster.Replica` serves a queue holding just
    ``job``, arriving at time 0, through the engine's serving head.  The
    report reads the request's own collector for its prefill end, token
    times and head stats, its
    :class:`~repro.metrics.report.RequestReport` for the tokens and the
    finish (the instant the budget was met), and the replica's collector
    for busy time, node memory, the fusion and draft-width histograms and
    worker stats; ``stats`` merges the two collectors.

    Args:
        engine_factory: engine class (or callable) taking
            (backend, network, config, metrics).
        backend: functional or oracle backend.
        cluster: the testbed (bound to a fresh kernel here).
        job: the prompt and token budget.  Request streams go through
            :func:`repro.serve.run.run_serving` instead.
        config: algorithm knobs; defaults to :class:`EngineConfig`.
    """
    from repro.serve.cluster import Replica  # cycle avoidance
    from repro.serve.scheduler import Request

    replica = Replica(0, engine_factory, backend, cluster, config)
    replica.start()
    replica.admit(Request(0, GenerationJob(tuple(job.prompt), job.n_generate), 0.0))
    replica.drain()
    (request,) = replica.engine.request_reports
    own = replica.engine.request_metrics[request.req_id]
    # The copy rebinds fields: neither collector is modified.
    view = copy.copy(replica.metrics)
    view.prefill_end, view.finish_time = own.prefill_end, request.finish_time
    view.token_times = own.token_times
    view.stats = RunStats.merged([own.stats, replica.metrics.stats])
    return EngineReport.from_collector(
        replica.engine.name, cluster.size, request.tokens, view
    )
