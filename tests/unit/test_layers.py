"""Transformer layer math."""

import numpy as np
import pytest

from repro.models.layers import (
    apply_rope_tables,
    rms_norm,
    rope_frequencies,
    rope_tables,
    silu,
    swiglu,
)


def rotate(x, positions, freqs):
    """The model's RoPE: one rotor table, one complex multiply."""
    return apply_rope_tables(x, rope_tables(positions, freqs))


class TestNorms:
    def test_rms_norm_unit_scale(self):
        x = np.random.default_rng(0).normal(size=(3, 16))
        out = rms_norm(x, np.ones(16))
        rms = np.sqrt(np.mean(out**2, axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)

    def test_rms_norm_weight(self):
        x = np.ones((1, 4))
        out = rms_norm(x, 2 * np.ones(4))
        assert np.allclose(out, 2.0, atol=1e-4)

    def test_silu_values(self):
        assert silu(np.array([0.0]))[0] == 0.0
        assert silu(np.array([100.0]))[0] == pytest.approx(100.0)


class TestRoPE:
    def test_frequencies_shape(self):
        assert rope_frequencies(8).shape == (4,)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            rope_frequencies(7)

    def test_rotation_preserves_norm(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 2, 8))
        freqs = rope_frequencies(8)
        rotated = rotate(x, np.array([0, 5, 100]), freqs)
        assert np.allclose(
            np.linalg.norm(rotated, axis=-1), np.linalg.norm(x, axis=-1)
        )

    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 8))
        out = rotate(x, np.array([0]), rope_frequencies(8))
        assert np.allclose(out, x)

    def test_relative_position_property(self):
        """q(m) . k(n) depends only on m - n, the defining RoPE property."""
        rng = np.random.default_rng(4)
        q = rng.normal(size=(1, 1, 8))
        k = rng.normal(size=(1, 1, 8))
        freqs = rope_frequencies(8)

        def dot(m, n):
            qm = rotate(q, np.array([m]), freqs)[0, 0]
            kn = rotate(k, np.array([n]), freqs)[0, 0]
            return float(qm @ kn)

        assert dot(5, 3) == pytest.approx(dot(12, 10), abs=1e-9)
        assert dot(7, 7) == pytest.approx(dot(0, 0), abs=1e-9)


class TestSwiGLU:
    def test_shapes(self):
        x = np.random.default_rng(9).normal(size=(3, 8))
        wg = np.random.default_rng(10).normal(size=(8, 12))
        wu = np.random.default_rng(11).normal(size=(8, 12))
        wd = np.random.default_rng(12).normal(size=(12, 8))
        assert swiglu(x, wg, wu, wd).shape == (3, 8)

    def test_zero_input_zero_output(self):
        wg = np.ones((4, 6))
        wu = np.ones((4, 6))
        wd = np.ones((6, 4))
        assert np.allclose(swiglu(np.zeros((1, 4)), wg, wu, wd), 0.0)
