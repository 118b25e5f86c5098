"""Inference engines: the paper's baselines.

- :mod:`repro.engines.single_node` — normal single-node inference;
- :mod:`repro.engines.iterative` — pipeline-parallel iterative inference;
- :mod:`repro.engines.speculative` — pipeline-parallel speculative
  inference (SpecInfer-style, synchronous speculate-then-verify);

Each is a class naming its rank layout and head policy.  The one serving
head (:mod:`repro.serve.head`) runs them as it runs PipeInfer
(:mod:`repro.core`), under a synchronous policy that admits one request
at a time.  All of them rest on the shared machinery:
backends (:mod:`repro.engines.backend`), the pipeline worker process
(:mod:`repro.engines.worker`), and run configuration/result types
(:mod:`repro.engines.base`).
"""

from repro.engines.backend import Backend, ChainState, FunctionalBackend, OracleBackend
from repro.engines.base import EngineConfig, GenerationJob, run_engine
from repro.engines.iterative import IterativeEngine
from repro.engines.single_node import SingleNodeEngine
from repro.engines.speculative import SpeculativeEngine

__all__ = [
    "Backend",
    "ChainState",
    "FunctionalBackend",
    "OracleBackend",
    "EngineConfig",
    "GenerationJob",
    "run_engine",
    "IterativeEngine",
    "SingleNodeEngine",
    "SpeculativeEngine",
]
