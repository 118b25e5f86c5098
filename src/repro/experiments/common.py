"""Shared experiment machinery: cells, scale control."""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Optional

from repro.cluster.testbed import make_testbed
from repro.core.engine import PipeInferEngine
from repro.engines.backend import OracleBackend
from repro.engines.base import EngineConfig, GenerationJob, run_engine
from repro.engines.iterative import IterativeEngine
from repro.engines.speculative import SpeculativeEngine
from repro.metrics.report import EngineReport, aggregate
from repro.models.zoo import get_pair
from repro.workloads.prompts import make_prompt

ENGINES = {
    "iter": IterativeEngine,
    "spec": SpeculativeEngine,
    "pipe": PipeInferEngine,
}


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run: tokens per generation and repetitions to average."""

    n_generate: int = 160
    reps: int = 3
    prompt_len: int = 128


def scale_from_env() -> ExperimentScale:
    """Scale from ``REPRO_TOKENS`` / ``REPRO_REPS`` (paper: 512 / 10)."""
    return ExperimentScale(
        n_generate=int(os.environ.get("REPRO_TOKENS", "160")),
        reps=int(os.environ.get("REPRO_REPS", "3")),
        prompt_len=int(os.environ.get("REPRO_PROMPT", "128")),
    )


def run_cell(
    pair_key: str,
    strategy: str,
    testbed: str,
    n_nodes: int,
    scale: Optional[ExperimentScale] = None,
    config: Optional[EngineConfig] = None,
    prompt_kind: str = "wikitext",
    acceptance: Optional[float] = None,
) -> EngineReport:
    """One experiment cell: (model pair, strategy, testbed size), averaged.

    ``acceptance`` overrides the pair's calibrated per-token rate (clamped
    to [0.01, 0.99]).  Repetitions vary the oracle seed, mimicking the
    paper's 10 averaged runs; the simulation itself is deterministic per
    seed.  So each cell is computed once per process, under a normalised
    key (scale resolved from the environment, ``None`` as the default
    config, the clamped rate), and its callers share one read-only report.
    """
    if acceptance is None:
        acceptance = get_pair(pair_key).acceptance
    return _cell(pair_key, strategy, testbed, n_nodes, scale or scale_from_env(),
                 config or EngineConfig(), prompt_kind, min(max(acceptance, 0.01), 0.99))


@functools.cache
def _cell(pair_key, strategy, testbed, n_nodes, scale, config, prompt_kind, acceptance):
    pair = get_pair(pair_key)
    cluster = make_testbed(testbed, n_nodes)
    prompt = make_prompt(prompt_kind, scale.prompt_len, pair.target_arch.vocab)
    job = GenerationJob(prompt=prompt, n_generate=scale.n_generate)
    reports = []
    for rep in range(scale.reps):
        backend = OracleBackend(
            pair,
            head_node=cluster.nodes[0],
            seed=rep * 1013,
            acceptance_override=acceptance,
        )
        reports.append(run_engine(ENGINES[strategy], backend, cluster, job, config))
    return aggregate(reports)


#: Node counts used by the paper's cluster-C sweeps.
PAPER_NODE_COUNTS = (4, 8, 15, 32)
