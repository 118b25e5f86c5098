"""PipeInfer reproduction: asynchronous pipelined speculation for LLM
inference across clusters (Butler et al., SC24).

Quickstart::

    from repro import (
        OracleBackend, PipeInferEngine, GenerationJob, run_engine,
        get_pair, cluster_c,
    )

    pair = get_pair("dolphin+tinyllama")
    cluster = cluster_c(8)
    backend = OracleBackend(pair, head_node=cluster.nodes[0])
    report = run_engine(
        PipeInferEngine, backend, cluster,
        GenerationJob(prompt=tuple(range(100, 228)), n_generate=256),
    )
    print(report.generation_speed, "tokens/s")
"""

from repro.api import (
    AsyncFrontend,
    ServingSession,
    StreamHub,
    TokenStream,
)
from repro.cluster import (
    Cluster,
    cluster_a,
    cluster_b,
    cluster_c,
    gpu_testbed,
    make_testbed,
)
from repro.cache import PrefixCacheManager, RadixTree
from repro.core import PipeInferEngine
from repro.engines import (
    EngineConfig,
    FunctionalBackend,
    GenerationJob,
    IterativeEngine,
    OracleBackend,
    SingleNodeEngine,
    SpeculativeEngine,
    run_engine,
)
from repro.faults import (
    CrashSpec,
    FaultInjector,
    FaultPlan,
    LinkFault,
    StragglerSpec,
)
from repro.metrics import ClusterReport, EngineReport, RequestReport, ServingReport
from repro.serve import (
    ClusterConfig,
    EngineCluster,
    Replica,
    RoutingPolicy,
    Workload,
    make_workload,
    run_cluster,
    run_serving,
)
from repro.models import (
    CPU_PAIRS,
    GPU_PAIRS,
    MODEL_ZOO,
    ModelPair,
    TinyTransformer,
    TransformerConfig,
    get_model,
    get_pair,
)
from repro.spec import DraftParams

__version__ = "1.0.0"

__all__ = [
    "AsyncFrontend",
    "ServingSession",
    "StreamHub",
    "TokenStream",
    "Cluster",
    "cluster_a",
    "cluster_b",
    "cluster_c",
    "gpu_testbed",
    "make_testbed",
    "PipeInferEngine",
    "PrefixCacheManager",
    "RadixTree",
    "EngineConfig",
    "FunctionalBackend",
    "GenerationJob",
    "IterativeEngine",
    "OracleBackend",
    "SingleNodeEngine",
    "SpeculativeEngine",
    "run_engine",
    "run_serving",
    "CrashSpec",
    "FaultInjector",
    "FaultPlan",
    "LinkFault",
    "StragglerSpec",
    "Workload",
    "make_workload",
    "Replica",
    "RoutingPolicy",
    "ClusterConfig",
    "EngineCluster",
    "run_cluster",
    "EngineReport",
    "RequestReport",
    "ServingReport",
    "ClusterReport",
    "CPU_PAIRS",
    "GPU_PAIRS",
    "MODEL_ZOO",
    "ModelPair",
    "TinyTransformer",
    "TransformerConfig",
    "get_model",
    "get_pair",
    "DraftParams",
    "__version__",
]
