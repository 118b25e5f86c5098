"""Rotary position embedding in its explicit real-arithmetic form.

:func:`repro.models.layers.apply_rope_tables` rotates channel pairs as
complex numbers with a precomputed rotor table.  :func:`apply_rope` is
the textbook form it replaces: for each consecutive pair ``(x1, x2)`` and
angle ``theta = pos * freq``, ``(x1 cos - x2 sin, x1 sin + x2 cos)``.
"""

from __future__ import annotations

import numpy as np


def apply_rope(x: np.ndarray, positions: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Rotate ``x`` of shape (n, heads, head_dim) by per-token positions."""
    angles = positions[:, None].astype(np.float64) * freqs[None, :]
    cos = np.cos(angles)[:, None, :]
    sin = np.sin(angles)[:, None, :]
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    out = np.empty_like(x, dtype=np.float64)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out
