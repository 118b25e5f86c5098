"""Multi-request serving: scheduler, serving head, and the one driver.

The serving layer is the request-level system every run goes through;
a single job (:func:`repro.engines.base.run_engine`) is a one-request
queue on one :class:`Replica`.  Requests are pushed one at a time into a
:class:`RequestScheduler` — the FCFS admission queue of one long-lived
pipeline — and one serving head, shared by every engine, multiplexes
work across the active requests.  See :mod:`repro.serve.head` for the
engines' head policies.

One driver feeds every workload: :class:`EngineCluster`
(:mod:`repro.serve.cluster`) runs K :class:`Replica` pipelines behind a
prefix/session-aware :class:`Router` and pushes each request into the
chosen replica's queue — see ``docs/serving-cluster.md``.
:func:`run_serving` is its single-pipeline (K=1) case, and
:class:`repro.api.ServingSession` drives it request by request.
"""

from repro.serve.cluster import (
    ClusterConfig,
    EngineCluster,
    Replica,
    Router,
    RoutingPolicy,
    run_cluster,
)
from repro.serve.run import make_workload, run_serving
from repro.serve.scheduler import Request, RequestScheduler, Workload

__all__ = [
    "Request",
    "RequestScheduler",
    "Workload",
    "run_serving",
    "make_workload",
    "Replica",
    "Router",
    "RoutingPolicy",
    "ClusterConfig",
    "EngineCluster",
    "run_cluster",
]
