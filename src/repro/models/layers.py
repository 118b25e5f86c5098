"""Transformer layer math: RMSNorm, RoPE, SwiGLU.

Pure NumPy, vectorized over the (tiny) decode batches the engines use.
Shapes follow the convention ``(n_tokens, ...)`` with attention heads as an
explicit axis: ``(n_tokens, n_heads, head_dim)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

try:  # numpy >= 2.0
    from numpy._core._multiarray_umath import c_einsum as _c_einsum
except ImportError:  # pragma: no cover - older numpy layouts
    try:
        from numpy.core._multiarray_umath import c_einsum as _c_einsum
    except ImportError:
        _c_einsum = np.einsum


class ScratchArena:
    """Named, shape-keyed scratch buffers for the hot forward path.

    ``get(name, shape)`` hands back a preallocated C-contiguous buffer,
    reallocating only when the requested shape (or dtype) changes — so
    decode batches of the same shape reuse the same memory pass after
    pass instead of re-allocating every temporary of every layer.

    A buffer is only valid until the next ``get`` with the same name;
    anything that outlives the arena (activations forwarded downstream,
    logits kept by the head) must be copied out.  Each concurrent
    consumer therefore owns its own arena — one per pipeline stage, one
    per draft plane — which the simulation's cooperative scheduling turns
    into a safety guarantee: a stage's buffers are never live across a
    yield.
    """

    __slots__ = ("_bufs", "n_hits", "n_misses")

    def __init__(self) -> None:
        self._bufs: dict = {}
        #: Statistics: shape-stable reuses vs. (re)allocations.
        self.n_hits = 0
        self.n_misses = 0

    def get(
        self, name: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is not None and buf.shape == shape and buf.dtype == dtype:
            self.n_hits += 1
            return buf
        self.n_misses += 1
        buf = np.empty(shape, dtype=dtype)
        self._bufs[name] = buf
        return buf


def rms_norm(
    x: np.ndarray,
    weight: np.ndarray,
    eps: float = 1e-5,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Root-mean-square layer norm (Llama-style, no mean subtraction).

    The mean square is a single einsum contraction (one pass, no squared
    temporary) — this runs twice per layer per decode batch, so the
    constant factors matter.  With ``out`` the normalized product is
    written into a caller-provided buffer using the exact same operation
    order, so results are bit-identical to the allocating form.
    """
    # Direct dispatch to the einsum kernel: ``np.einsum`` without an
    # ``optimize`` path delegates to exactly this call, so the result is
    # bit-identical — only the per-call wrapper overhead is skipped
    # (this runs twice per layer per decode batch).
    ms = _c_einsum("...d,...d->...", x, x)
    # In-place on the fresh einsum result: the same ufunc sequence as
    # ``1.0 / np.sqrt(ms / d + eps)`` without the three temporaries.
    ms /= x.shape[-1]
    ms += eps
    np.sqrt(ms, out=ms)
    np.divide(1.0, ms, out=ms)
    scale = ms
    if out is None:
        return x * scale[..., None] * weight
    np.multiply(x, scale[..., None], out=out)
    out *= weight
    return out


def silu(
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sigmoid-weighted linear unit.

    With ``out`` (which may alias ``x``) the result is computed with the
    same elementwise steps into caller buffers; ``scratch`` holds the
    ``exp(-x)`` intermediate and must not alias ``x`` or ``out``.
    """
    if out is None:
        return x / (1.0 + np.exp(-x))
    t = scratch if scratch is not None else np.empty_like(x)
    np.negative(x, out=t)
    np.exp(t, out=t)
    t += 1.0
    np.divide(x, t, out=out)
    return out


def rope_frequencies(head_dim: int, base: float = 10000.0) -> np.ndarray:
    """Per-pair rotation frequencies for rotary position embedding."""
    if head_dim % 2 != 0:
        raise ValueError("head_dim must be even for RoPE")
    return base ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)


def rope_tables(positions: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Per-token rotation table (complex rotors) for a batch of positions.

    The table depends only on ``positions`` — never on the layer or the
    tensor being rotated — so one table serves every q/k rotation of every
    layer in a forward pass, and callers may further cache it per
    positions-tuple across calls (prefill batches repeat the same
    0..L-1 positions for every request of a given prompt length).

    Returns ``cos + i*sin`` shaped (n, 1, head_dim/2), ready to broadcast
    over the heads axis: rotating a channel pair (x1, x2) by angle θ is
    exactly the complex product (x1 + i*x2)(cosθ + i*sinθ).
    """
    angles = positions[:, None].astype(np.float64) * freqs[None, :]  # (n, hd/2)
    return (np.cos(angles) + 1j * np.sin(angles))[:, None, :]


def apply_rope_tables(
    x: np.ndarray, rot: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Rotate ``x`` of shape (n, heads, head_dim) with a precomputed table.

    Consecutive channel pairs are viewed as complex numbers and rotated
    with one vectorized complex multiply — the same ``x1*cos - x2*sin`` /
    ``x1*sin + x2*cos`` arithmetic as the explicit form, without the
    strided slice assignments.  ``out`` must be a C-contiguous float64
    buffer of the same shape and may alias ``x`` (in-place rotation).
    """
    if not x.flags.c_contiguous:  # complex view needs contiguous pairs
        x = np.ascontiguousarray(x)
    xc = x.view(np.complex128)
    if out is None:
        return (xc * rot).view(np.float64)
    np.multiply(xc, rot, out=out.view(np.complex128))
    return out


def swiglu(
    x: np.ndarray,
    w_gate: np.ndarray,
    w_up: np.ndarray,
    w_down: np.ndarray,
    arena: Optional[ScratchArena] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """SwiGLU feed-forward: ``silu(x @ Wg) * (x @ Wu) @ Wd``.

    With ``arena`` the gate/up projections and the silu intermediate live
    in recycled scratch buffers; every operation is the same BLAS call or
    elementwise ufunc as the allocating form, so outputs are
    bit-identical.  ``out`` (requires ``arena``) receives the final
    down-projection.
    """
    if arena is None:
        return (silu(x @ w_gate) * (x @ w_up)) @ w_down
    n, ff = x.shape[0], w_gate.shape[1]
    g = arena.get("swiglu.gate", (n, ff))
    u = arena.get("swiglu.up", (n, ff))
    t = arena.get("swiglu.tmp", (n, ff))
    np.matmul(x, w_gate, out=g)
    np.matmul(x, w_up, out=u)
    silu(g, out=g, scratch=t)
    g *= u
    if out is None:
        return g @ w_down
    np.matmul(g, w_down, out=out)
    return out
