"""Shared fixtures: tiny functional models, clusters, default jobs."""

from __future__ import annotations

import pytest

from repro import (
    EngineConfig,
    FunctionalBackend,
    GenerationJob,
    TinyTransformer,
    TransformerConfig,
)
import repro.serve.head as serve_head
from repro.models.transformer import perturbed_copy
from repro.spec.draft import DraftParams

TINY_CFG = TransformerConfig(
    vocab=128, d_model=32, n_layers=4, n_heads=4, n_kv_heads=2, d_ff=64, seed=7
)

PROMPT = (1, 5, 9, 13, 17, 21, 25, 29)


@pytest.fixture(scope="session")
def tiny_target() -> TinyTransformer:
    return TinyTransformer(TINY_CFG)


@pytest.fixture(scope="session")
def tiny_draft(tiny_target) -> TinyTransformer:
    """A moderately aligned draft (some rejections, some acceptance)."""
    return perturbed_copy(tiny_target, noise=0.15, seed=9)


@pytest.fixture()
def functional_backend(tiny_target, tiny_draft) -> FunctionalBackend:
    return FunctionalBackend(tiny_target, tiny_draft, n_cells=512)


@pytest.fixture()
def functional_config() -> EngineConfig:
    """Engine config whose cutoff admits the tiny model's flat confidences."""
    return EngineConfig(
        draft=DraftParams(max_tokens=4, cutoff=0.02),
        cutoff_recovery=0.01,
        cutoff_decay=0.01,
    )


@pytest.fixture()
def small_job() -> GenerationJob:
    return GenerationJob(prompt=PROMPT, n_generate=24)


@pytest.fixture()
def verify_entry_checks(monkeypatch) -> list:
    """Check the verify entry invariant on every verification of the test.

    ``verify_run_logits`` scans only the newly accepted positions for a
    divergence, which is exact only if the request's chain starts with
    its accepted stream whenever verification is entered.  The fixture
    wraps the serving head's call, asserts that on entry and appends one
    entry per checked call to the returned list.
    """
    checked: list = []
    verify = serve_head.verify_run_logits

    def checking(engine, ctx, payload, *args, **kwargs):
        n = len(ctx.accepted)
        assert ctx.chain.tokens[:n] == ctx.accepted
        checked.append(n)
        return verify(engine, ctx, payload, *args, **kwargs)

    monkeypatch.setattr(serve_head, "verify_run_logits", checking)
    return checked
