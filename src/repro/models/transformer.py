"""A real (tiny) decoder-only transformer in NumPy.

Architecturally a faithful miniature of the Llama family: RMSNorm ->
grouped-query attention with RoPE -> residual -> RMSNorm -> SwiGLU ->
residual, untied embedding and output head.  Weights are deterministic
random draws from a seed, so a "model" is reproducible from its config.

The forward pass is *stage-sliced* for pipeline parallelism: a pipeline
rank evaluates ``forward_stage`` over its layer range against its own KV
cache shard, exactly like a llama.cpp MPI worker.  Batches are lists of
:class:`~repro.comm.payloads.TokenSlot`, which carry per-token positions
and KV sequence assignments — the substrate for speculative tree
verification and KV multibuffering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.comm.payloads import TokenSlot
from repro.models.kv_cache import KVCache
from repro.models.layers import (
    ScratchArena,
    apply_rope_tables,
    rms_norm,
    rope_frequencies,
    rope_tables,
    swiglu,
)

#: RoPE-table cache entries kept per model before the cache is reset.
_ROPE_CACHE_LIMIT = 512

#: Attention row-chunk size within one run.  Long prefill batches are
#: causal, so splitting their rows bounds each chunk's visible-cell set
#: to roughly the cells written so far — skipping most of the masked-out
#: score/softmax area.  Chunk boundaries are relative to the run start,
#: so a run is chunked the same way whether it is evaluated alone or
#: inside a fused window.
_ATTN_CHUNK = 128


@dataclass(frozen=True)
class TransformerConfig:
    """Shape and seed of a tiny functional transformer."""

    vocab: int = 256
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 4
    n_kv_heads: int = 2
    d_ff: int = 172
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must divide evenly into heads")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be a multiple of n_kv_heads")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError("head_dim must be even (RoPE)")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim


class _LayerWeights:
    """One decoder layer's parameters."""

    __slots__ = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down",
                 "attn_norm", "ffn_norm")

    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator) -> None:
        d, kv, ff = cfg.d_model, cfg.kv_dim, cfg.d_ff
        s = 1.0 / np.sqrt(d)
        self.wq = rng.normal(0.0, s, (d, d))
        self.wk = rng.normal(0.0, s, (d, kv))
        self.wv = rng.normal(0.0, s, (d, kv))
        self.wo = rng.normal(0.0, s / np.sqrt(2 * cfg.n_layers), (d, d))
        self.w_gate = rng.normal(0.0, s, (d, ff))
        self.w_up = rng.normal(0.0, s, (d, ff))
        self.w_down = rng.normal(0.0, 1.0 / np.sqrt(ff) / np.sqrt(2 * cfg.n_layers), (ff, d))
        self.attn_norm = np.ones(d)
        self.ffn_norm = np.ones(d)


class TinyTransformer:
    """Deterministic NumPy decoder-only transformer."""

    def __init__(self, cfg: TransformerConfig) -> None:
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        d = cfg.d_model
        self.embedding = rng.normal(0.0, 1.0, (cfg.vocab, d))
        self.layers = [_LayerWeights(cfg, rng) for _ in range(cfg.n_layers)]
        self.final_norm = np.ones(d)
        self.lm_head = rng.normal(0.0, 1.0 / np.sqrt(d), (d, cfg.vocab))
        self._freqs = rope_frequencies(cfg.head_dim)
        #: positions-tuple -> (cos, sin) rotation tables.  Prefill batches
        #: repeat the same 0..L-1 positions per prompt length and decode
        #: batches revisit position patterns across requests, so tables
        #: are computed once per distinct positions tuple rather than
        #: twice per layer per forward pass.
        self._rope_cache: dict = {}

    def _rope_tables(self, positions: np.ndarray):
        key = positions.tobytes()
        hit = self._rope_cache.get(key)
        if hit is None:
            if len(self._rope_cache) >= _ROPE_CACHE_LIMIT:
                self._rope_cache.clear()
            hit = rope_tables(positions, self._freqs)
            self._rope_cache[key] = hit
        return hit

    # -- cache construction -------------------------------------------------------

    def new_cache(self, n_cells: int, layer_range: Optional[tuple[int, int]] = None) -> KVCache:
        """A tensor-backed cache shard for ``layer_range`` (default: all layers)."""
        lo, hi = layer_range if layer_range is not None else (0, self.cfg.n_layers)
        return KVCache(n_cells, n_layers=hi - lo, kv_dim=self.cfg.kv_dim)

    # -- forward pieces (pipeline-stage API) ----------------------------------------

    def embed(self, slots: Sequence[TokenSlot]) -> np.ndarray:
        """Input embedding for a batch: shape (n_tokens, d_model)."""
        tokens = [s.token for s in slots]
        # Fancy indexing already materializes a fresh array.
        return self.embedding[tokens]

    def forward_stage(
        self,
        hidden: np.ndarray,
        slots: Sequence[TokenSlot],
        cache: KVCache,
        layer_range: tuple[int, int],
        cells: Optional[Sequence[int]] = None,
        plans: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
        arena: Optional[ScratchArena] = None,
        row_groups: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Evaluate layers [lo, hi) for a batch against a cache shard.

        Args:
            hidden: (n_tokens, d_model) activations entering the stage.
            slots: batch metadata; positions drive RoPE, seq ids drive the
                attention mask via cache metadata.
            cache: this stage's KV shard; must have ``hi - lo`` layers.
            layer_range: global layer indices [lo, hi); the shard's local
                layer index is ``layer - lo``.
            cells: pre-allocated cache cells for this batch (one per slot).
                Allocated here when omitted.
            plans: one compact visibility plan ``(cells, mask)`` per row
                group, in row order, as :meth:`KVCache.visible_matrix`
                returns it: ``cells`` are the ascending cells the group's
                rows see, ``mask`` is ``(group rows, len(cells))``.  Fused
                cross-run batches pass per-run plans snapshotted in
                transaction order.  When omitted, one plan is computed
                from the current cache metadata and split by
                ``row_groups``.
            arena: scratch buffers reused across calls of the same batch
                shape (a private one is made per call when omitted).  The
                returned activations are always freshly allocated — they
                travel downstream while the arena is recycled for the
                next window — and ``hidden`` is never mutated.
            row_groups: per-run row counts when ``plans`` is omitted and
                the batch concatenates several runs (batched draft
                proposals).  Default: one group spanning the whole batch.

        Attention runs per plan over just the cells that plan can see —
        fused cross-request batches mostly attend to disjoint cell sets,
        so this skips the masked-out bulk of the score area.  Each plan's
        attention is exactly what its run computes evaluated on its own:
        the score and output matmuls and the softmax row sums stay per
        plan, with the run's own shapes, because BLAS blocking and
        pairwise summation make them depend on those shapes.  Everything
        elementwise or order-free — the K/V gather, the ``1/sqrt(hd)``
        scale, the mask, the row max, the shift, ``exp`` and the divide —
        runs once per layer over the whole batch.  The projections and
        the MLP are batched over all the window's rows, so a fused run's
        activations match its solo evaluation to rounding, not bitwise.

        Returns:
            (n_tokens, d_model) activations leaving the stage.
        """
        lo, hi = layer_range
        if cache.n_layers != hi - lo:
            raise ValueError(
                f"cache shard has {cache.n_layers} layers, stage needs {hi - lo}"
            )
        cfg = self.cfg
        positions = np.array([s.pos for s in slots], dtype=np.int64)
        if cells is None:
            cells = cache.allocate([(s.pos, s.seq_ids) for s in slots])
        cells = np.asarray(cells, dtype=np.intp)
        n, d, kv = len(slots), cfg.d_model, cfg.kv_dim
        if plans is None:
            # Visibility depends only on cache metadata (fixed once the
            # batch's cells are allocated), never on the layer: one
            # compact plan per batch, split by row group.
            seen, mask = cache.visible_matrix([s.seq_ids[0] for s in slots], positions)
            plans = []
            a = 0
            for count in (row_groups if row_groups is not None else (n,)):
                plans.append(_plan_rows(seen, mask, a, a + count))
                a += count
            if a != n:
                raise ValueError(f"row_groups sum to {a}, batch has {n} tokens")
        if not n:
            return np.empty((0, d))
        rot = self._rope_tables(positions)
        if arena is None:
            arena = ScratchArena()
        kvh, hd = cfg.n_kv_heads, cfg.head_dim
        heads = cfg.n_heads
        group = heads // kvh
        # Residual stream and per-layer temporaries live in the arena;
        # every operation below is the same BLAS call / ufunc whether the
        # buffers are recycled or freshly allocated.
        h = arena.get("stage.h", (n, d))
        np.copyto(h, hidden)
        x = arena.get("stage.x", (n, d))
        tmp = arena.get("stage.tmp", (n, d))
        q2 = arena.get("stage.q", (n, d))
        k2 = arena.get("stage.k", (n, kv))
        v2 = arena.get("stage.v", (n, kv))
        attn2 = arena.get("stage.attn", (n, d))
        q = q2.reshape(n, heads, hd)
        k = k2.reshape(n, kvh, hd)
        # Attention sub-problems: each plan, chunked by rows for long
        # causal runs, as (first row, end row, cells, mask).
        parts = []
        a = 0
        for seen, mask in plans:
            r = mask.shape[0]
            for c0 in range(0, r, _ATTN_CHUNK):
                c1 = min(c0 + _ATTN_CHUNK, r)
                part_cells, part_mask = _plan_rows(seen, mask, c0, c1)
                if not part_cells.size:
                    raise ValueError("an attention row sees no cache cell")
                parts.append((a + c0, a + c1, part_cells, part_mask))
            a += r
        if a != n:
            raise ValueError(f"plans cover {a} rows, batch has {n} tokens")
        # One shared K/V gather buffer (each part's keys are a contiguous
        # slice of it), one flat score buffer laid out part by part, row
        # by row, head by head, and one per-(row, head) reduction buffer.
        # Every shape-dependent view is hoisted out of the layer loop.
        gather = parts[0][2] if len(parts) == 1 else np.concatenate([p[2] for p in parts])
        n_keys = len(gather)
        kbuf = arena.get("stage.kgather", (n_keys, kv), dtype=cache.k.dtype)
        vbuf = arena.get("stage.vgather", (n_keys, kv), dtype=cache.v.dtype)
        kt = kbuf.reshape(n_keys, kvh, hd).transpose(1, 2, 0)
        vt = vbuf.reshape(n_keys, kvh, hd).transpose(1, 0, 2)
        # Width of each (row, head) score segment, and where it starts.
        seg_len = np.repeat([len(p[2]) for p in parts], [(p[1] - p[0]) * heads for p in parts])
        starts = np.zeros(n * heads, dtype=np.intp)
        np.cumsum(seg_len[:-1], out=starts[1:])
        n_scores = int(starts[-1] + seg_len[-1])
        scores = arena.get("attn.scores", (n_scores,))
        red = arena.get("attn.red", (n * heads,))
        q4 = q2.reshape(n, kvh, group, hd)
        red4 = red.reshape(n, kvh, group, 1)
        attn4 = attn2.reshape(n, kvh, group, hd)
        # Scores a row may not see, as a mask over the flat buffer: only
        # multi-row (causal or tree) parts hide cells — a one-row part
        # sees every cell it gathered.
        hidden_at = None
        views = []
        g0 = s0 = 0
        for r0, r1, part_cells, part_mask in parts:
            r, u = r1 - r0, len(part_cells)
            sv = scores[s0 : s0 + r * heads * u].reshape(r, kvh, group, u)
            if r > 1:
                if hidden_at is None:
                    hidden_at = np.zeros(n_scores, dtype=bool)
                np.logical_not(
                    part_mask[:, None, None, :],
                    out=hidden_at[s0 : s0 + r * heads * u].reshape(r, kvh, group, u),
                )
            views.append((
                q4[r0:r1], kt[:, :, g0 : g0 + u], vt[:, g0 : g0 + u], sv,
                red4[r0:r1], attn4[r0:r1],
            ))
            g0 += u
            s0 += r * heads * u
        sqrt_hd = np.sqrt(hd)
        for layer in range(lo, hi):
            w = self.layers[layer]
            local = layer - lo
            rms_norm(h, w.attn_norm, out=x)
            np.matmul(x, w.wq, out=q2)
            np.matmul(x, w.wk, out=k2)
            np.matmul(x, w.wv, out=v2)
            apply_rope_tables(q, rot, out=q)
            apply_rope_tables(k, rot, out=k)
            cache.write(local, cells, k2, v2)
            cache.k[local].take(gather, axis=0, out=kbuf)
            cache.v[local].take(gather, axis=0, out=vbuf)
            # Per part: the score matmul, the row sums and the output
            # matmul, each with the part's own shapes.  Once per layer
            # over the whole batch: the elementwise and order-free rest.
            for qg, kct, _, sv, _, _ in views:
                np.matmul(qg, kct, out=sv)
            scores /= sqrt_hd
            if hidden_at is not None:
                np.copyto(scores, -np.inf, where=hidden_at)
            np.maximum.reduceat(scores, starts, out=red)
            scores -= np.repeat(red, seg_len)
            np.exp(scores, out=scores)
            for _, _, _, sv, rv, _ in views:
                np.add.reduce(sv, axis=-1, keepdims=True, out=rv)
            scores /= np.repeat(red, seg_len)
            for _, _, vct, sv, _, og in views:
                np.matmul(sv, vct, out=og)
            np.matmul(attn2, w.wo, out=tmp)
            h += tmp
            rms_norm(h, w.ffn_norm, out=x)
            swiglu(x, w.w_gate, w.w_up, w.w_down, arena=arena, out=tmp)
            h += tmp
        # The activations leave this stage (and this arena): copy out.
        return h.copy()

    def output(
        self,
        hidden: np.ndarray,
        want: Optional[Sequence[int]] = None,
        arena: Optional[ScratchArena] = None,
    ) -> np.ndarray:
        """Final norm + LM head; ``want`` selects batch rows (default: all).

        The returned logits are always freshly allocated (the head keeps
        them); ``arena`` only recycles the normalized intermediate.
        """
        h = hidden if want is None else hidden[list(want)]
        if arena is None:
            return rms_norm(h, self.final_norm) @ self.lm_head
        x = arena.get("out.norm", h.shape)
        rms_norm(h, self.final_norm, out=x)
        return x @ self.lm_head

    # -- single-node convenience --------------------------------------------------

    def decode(
        self,
        slots: Sequence[TokenSlot],
        cache: KVCache,
        arena: Optional[ScratchArena] = None,
        row_groups: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Full forward pass: logits for every slot with ``want_logits``."""
        hidden = self.embed(slots)
        hidden = self.forward_stage(
            hidden, slots, cache, (0, self.cfg.n_layers), arena=arena,
            row_groups=row_groups,
        )
        want = [i for i, s in enumerate(slots) if s.want_logits]
        return self.output(hidden, want, arena=arena)


def _plan_rows(
    cells: np.ndarray, mask: np.ndarray, r0: int, r1: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The compact plan of rows [r0, r1) of plan ``(cells, mask)``.

    Keeps just the cells those rows see, in ascending order; a range
    covering every row returns the plan itself.
    """
    if r0 == 0 and r1 == mask.shape[0]:
        return cells, mask
    rows = mask[r0:r1]
    used = np.flatnonzero(rows.any(axis=0))
    return cells[used], rows.take(used, axis=1)


def perturbed_copy(model: TinyTransformer, noise: float, seed: int = 1) -> TinyTransformer:
    """A draft model derived from ``model`` by adding weight noise.

    ``noise=0`` gives a perfectly aligned draft (acceptance 1 under greedy
    decoding); increasing noise monotonically decreases alignment.  Used by
    functional tests to exercise partial-acceptance paths with real logits.
    """
    draft = TinyTransformer(model.cfg)
    rng = np.random.default_rng(seed)

    def jitter(a: np.ndarray) -> np.ndarray:
        return a + rng.normal(0.0, noise * (np.std(a) + 1e-9), a.shape)

    draft.embedding = jitter(model.embedding)
    draft.lm_head = jitter(model.lm_head)
    draft.final_norm = model.final_norm.copy()
    for dst, src in zip(draft.layers, model.layers):
        for name in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down"):
            setattr(dst, name, jitter(getattr(src, name)))
        dst.attn_norm = src.attn_norm.copy()
        dst.ffn_norm = src.ffn_norm.copy()
    return draft
