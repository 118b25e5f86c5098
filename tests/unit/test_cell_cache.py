"""The experiment cell cache: one computation per normalised key.

``run_cell`` resolves its scale and config before the lookup, so a call
that leaves them out shares the entry of a call that spells out the
defaults, and the paper figures read each cell of their shared grids
once per process.  A cached cell must be the report a fresh simulation
of that cell gives.
"""

import dataclasses

import pytest

from repro.cluster.testbed import make_testbed
from repro.engines.backend import OracleBackend
from repro.engines.base import EngineConfig, GenerationJob, run_engine
from repro.experiments import common
from repro.experiments.common import ExperimentScale, run_cell
from repro.metrics.report import aggregate
from repro.models.zoo import get_pair
from repro.workloads.prompts import make_prompt

TINY = ExperimentScale(n_generate=8, reps=1, prompt_len=16)
CELL = ("dolphin+tinyllama", "pipe", "C", 4)


@pytest.fixture(autouse=True)
def empty_cache():
    common._cell.cache_clear()
    yield
    common._cell.cache_clear()


def misses() -> int:
    return common._cell.cache_info().misses


def test_same_key_returns_the_cached_report():
    first = run_cell(*CELL, TINY)
    assert run_cell(*CELL, TINY) is first
    assert misses() == 1


def test_default_config_shares_the_none_entry():
    assert run_cell(*CELL, TINY, config=None) is run_cell(*CELL, TINY, config=EngineConfig())
    assert misses() == 1


def test_scale_from_env_is_resolved_before_the_lookup(monkeypatch):
    monkeypatch.setenv("REPRO_TOKENS", "8")
    monkeypatch.setenv("REPRO_REPS", "1")
    monkeypatch.setenv("REPRO_PROMPT", "16")
    assert run_cell(*CELL) is run_cell(*CELL, TINY)
    assert misses() == 1


@pytest.mark.parametrize("change", [
    {"scale": dataclasses.replace(TINY, n_generate=9)},
    {"config": EngineConfig().ablated(microbatch_size=2)},
    {"acceptance": 0.5},
])
def test_a_different_key_computes_a_new_cell(change):
    base = run_cell(*CELL, TINY)
    other = run_cell(*CELL, **{"scale": TINY, **change})
    assert other is not base
    assert misses() == 2


def test_cached_cell_equals_a_fresh_run():
    """``run_cell`` averages its repetitions with ``aggregate``; at one
    repetition that is a fresh seed-0 run at the pair's own acceptance."""
    cached = run_cell(*CELL, TINY)
    pair, cluster = get_pair(CELL[0]), make_testbed("C", 4)
    backend = OracleBackend(
        pair, head_node=cluster.nodes[0], seed=0, acceptance_override=pair.acceptance
    )
    job = GenerationJob(make_prompt("wikitext", TINY.prompt_len, pair.target_arch.vocab),
                        TINY.n_generate)
    fresh = run_engine(common.ENGINES["pipe"], backend, cluster, job)
    assert dataclasses.asdict(cached) == dataclasses.asdict(aggregate([fresh]))
