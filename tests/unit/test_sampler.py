"""Sampling over dense and oracle logits."""

import numpy as np
import pytest

from repro.models.oracle import OracleLogits
from repro.models.sampler import (
    argmax_token,
    softmax_probs,
    top_prob,
)


def test_argmax_dense():
    assert argmax_token(np.array([0.1, 3.0, -1.0])) == 1


def test_argmax_oracle():
    assert argmax_token(OracleLogits(top_token=42, top_prob=0.9)) == 42


def test_top_prob_dense():
    assert top_prob(np.array([0.0, 0.0])) == pytest.approx(0.5)


def test_top_prob_oracle():
    assert top_prob(OracleLogits(1, 0.73)) == 0.73


def test_softmax_probs_normalized():
    p = softmax_probs(np.array([1.0, 2.0, 3.0]))
    assert p.sum() == pytest.approx(1.0)
    assert np.argmax(p) == 2
