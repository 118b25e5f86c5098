"""EngineConfig field validation."""

import dataclasses

import pytest

from repro import (
    EngineConfig,
    GenerationJob,
    OracleBackend,
    SpeculativeEngine,
    cluster_c,
    get_pair,
    run_engine,
)
from repro.spec.draft import DraftParams


def test_defaults_valid():
    cfg = EngineConfig()
    assert cfg.microbatch_size == 4
    assert cfg.n_seq_partitions == 8


@pytest.mark.parametrize("value", [0, -1, -4])
def test_rejects_nonpositive_microbatch(value):
    with pytest.raises(ValueError, match="microbatch_size"):
        EngineConfig(microbatch_size=value)


@pytest.mark.parametrize("value", [0, -2])
def test_rejects_nonpositive_partitions(value):
    with pytest.raises(ValueError, match="n_seq_partitions"):
        EngineConfig(n_seq_partitions=value)


@pytest.mark.parametrize("value", [0, -8])
def test_rejects_nonpositive_lookahead(value):
    with pytest.raises(ValueError, match="lookahead_cap"):
        EngineConfig(lookahead_cap=value)


def test_rejects_negative_cutoff_factors():
    with pytest.raises(ValueError, match="cutoff_recovery"):
        EngineConfig(cutoff_recovery=-0.01)
    with pytest.raises(ValueError, match="cutoff_decay"):
        EngineConfig(cutoff_decay=-0.5)


def test_ablated_validates_too():
    """ablated() rebuilds the dataclass, so invalid copies are rejected."""
    with pytest.raises(ValueError, match="microbatch_size"):
        EngineConfig().ablated(microbatch_size=0)


def test_zero_cutoff_factors_allowed():
    cfg = EngineConfig(cutoff_recovery=0.0, cutoff_decay=0.0)
    assert cfg.cutoff_recovery == 0.0


@pytest.mark.parametrize("value", [0, -1])
def test_rejects_nonpositive_max_draft_batch(value):
    with pytest.raises(ValueError, match="max_draft_batch"):
        EngineConfig(max_draft_batch=value)


def test_draft_batch_and_burst_defaults():
    cfg = EngineConfig()
    assert cfg.max_draft_batch == 8
    assert cfg.ablated(max_draft_batch=1).max_draft_batch == 1
    # Burst dispatch is unconditional: there is no off switch to default.
    assert "burst_dispatch" not in {f.name for f in dataclasses.fields(cfg)}


@pytest.mark.parametrize("field", ["prefix_cache_cells", "min_match_tokens"])
@pytest.mark.parametrize("value", [0, -3])
def test_rejects_nonpositive_prefix_cache_knobs(field, value):
    with pytest.raises(ValueError, match=field):
        EngineConfig(**{field: value})


def test_prefix_cache_defaults():
    cfg = EngineConfig()
    assert cfg.prefix_cache is False
    assert cfg.prefix_cache_cells == 1024
    assert cfg.min_match_tokens == 8
    assert cfg.ablated(prefix_cache=True).prefix_cache is True


@pytest.mark.parametrize(
    "partitions, draft, ok",
    [
        (2, DraftParams(max_tokens=4, branch_width=1), True),  # a chain: one leaf
        (4, DraftParams(max_tokens=4, branch_width=2), False),  # up to 4 leaves
        (5, DraftParams(max_tokens=4, branch_width=2), True),
    ],
)
def test_speculative_rejects_trees_the_pool_cannot_hold(partitions, draft, ok):
    """Speculative keeps each tree leaf's branch in its own pool partition,
    beside the request's canonical one."""
    cluster = cluster_c(2)
    cfg = EngineConfig(n_seq_partitions=partitions, draft=draft)
    job = GenerationJob(prompt=(1, 2, 3, 4), n_generate=4)

    def run():
        backend = OracleBackend(get_pair("dolphin+tinyllama"), head_node=cluster.nodes[0])
        return run_engine(SpeculativeEngine, backend, cluster, job, cfg)

    if ok:
        assert len(run().tokens) == 4
    else:
        with pytest.raises(ValueError, match="branch partitions"):
            run()
