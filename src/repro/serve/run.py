"""Entry point: run a workload of requests through one simulated pipeline.

``run_serving`` is the single-pipeline (K=1) case of the one serving
driver, :class:`~repro.serve.cluster.EngineCluster`: it opens one
replica, pushes the workload into its queue request by request, drains
it, and returns the cluster's merged report, which for one replica is
that replica's own report bit for bit (both are the same fold).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.topology import Cluster
from repro.engines.backend import Backend
from repro.engines.base import EngineConfig, GenerationJob
from repro.metrics.report import ServingReport
from repro.serve.cluster import ClusterConfig, run_cluster
from repro.serve.scheduler import Workload


def run_serving(
    engine_factory,
    backend: Backend,
    cluster: Cluster,
    workload: Workload,
    config: Optional[EngineConfig] = None,
    fault_plan=None,
) -> ServingReport:
    """Build a fresh simulation, serve the whole workload, return the report.

    Args:
        engine_factory: engine class (or callable) taking
            (backend, network, config, metrics).  PipeInfer serves with
            multiplexed continuous speculation; the baselines serve FCFS
            one request at a time.
        backend: functional or oracle backend.
        cluster: the testbed (bound to a fresh kernel here).
        workload: jobs + arrival trace + optional concurrency cap.
        config: algorithm knobs; defaults to :class:`EngineConfig`.
        fault_plan: optional :class:`repro.faults.FaultPlan`; a non-empty
            plan injects link faults, stragglers, and worker crashes, and
            arms the ack/retransmit + re-prefill recovery machinery.  An
            empty (or None) plan installs nothing — the simulation is
            byte-identical to one run without the fault plane.
    """
    return run_cluster(
        engine_factory,
        [backend],
        [cluster],
        workload,
        ClusterConfig(n_replicas=1),
        config,
        fault_plans=[fault_plan],
    ).merged


def make_workload(
    jobs: Sequence[GenerationJob],
    arrivals: Sequence[float] = (),
    max_active: Optional[int] = None,
    sessions: Sequence[Optional[int]] = (),
    priorities: Sequence[int] = (),
    ttft_slos: Sequence[Optional[float]] = (),
    itl_slos: Sequence[Optional[float]] = (),
) -> Workload:
    """Convenience constructor accepting plain sequences."""
    return Workload(
        jobs=tuple(jobs),
        arrivals=tuple(arrivals),
        max_active=max_active,
        sessions=tuple(sessions),
        priorities=tuple(priorities),
        ttft_slos=tuple(ttft_slos),
        itl_slos=tuple(itl_slos),
    )
