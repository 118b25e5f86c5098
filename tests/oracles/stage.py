"""Reference forms of the functional backend's stage evaluation.

- :func:`compute_stage`: one run's batch evaluated on its own, its KV
  cells allocated and its layers run alone.  The fused == sequential
  suite (``tests/property/test_prop_fusion.py``) compares
  :meth:`~repro.engines.backend.FunctionalBackend.compute_stage_multi`
  against it.
- :func:`reference_forward_stage`: ``TinyTransformer.forward_stage`` with
  the attention evaluated one plan at a time — each plan gathers its own
  K/V and runs its own softmax over a full-width visibility mask
  compacted per plan.  The stage bitwise suite
  (``tests/property/test_prop_stage_bitwise.py``) holds the batched
  attention of ``forward_stage`` to byte equality with it.
"""

from __future__ import annotations

import numpy as np

from repro.models.kv_cache import KVCache
from repro.models.layers import ScratchArena, apply_rope_tables, rms_norm, swiglu
from repro.models.transformer import _ATTN_CHUNK


def compute_stage(backend, ws, meta, hidden_in):
    """Evaluate ``backend``'s stage on ``ws`` for one run's batch.

    Allocates the batch's KV cells on the shard and returns the outgoing
    hidden states; a first stage embeds from ``meta.slots`` when
    ``hidden_in`` is None.
    """
    cache: KVCache = ws.cache
    hidden = backend.target.embed(meta.slots) if hidden_in is None else hidden_in
    # One ndarray of cell indices per batch; every layer's K/V write
    # fancy-indexes with it directly (no per-layer list conversion).
    cells = np.asarray(
        cache.allocate([(s.pos, s.seq_ids) for s in meta.slots]),
        dtype=np.intp,
    )
    return backend.target.forward_stage(
        hidden, meta.slots, cache, ws.layer_range, cells=cells,
        arena=ws.arena,
    )


def reference_forward_stage(
    model, hidden, slots, cache, layer_range, cells=None, plans=None,
    arena=None, row_groups=None,
):
    """``model.forward_stage`` with per-plan attention; same arguments.

    Visibility is expanded to one full-width row per token — from
    ``plans`` when given, else from per-token ``visible_cells`` queries —
    and every (row group, 128-row chunk) attends over just the cells its
    rows see, with all eleven attention steps run per plan.  ``arena`` is
    accepted for signature parity and ignored.
    """
    lo, hi = layer_range
    cfg = model.cfg
    positions = np.array([s.pos for s in slots], dtype=np.int64)
    if cells is None:
        cells = cache.allocate([(s.pos, s.seq_ids) for s in slots])
    cells = np.asarray(cells, dtype=np.intp)
    n, d, kv = len(slots), cfg.d_model, cfg.kv_dim
    visible = np.zeros((n, cache.n_cells), dtype=bool)
    if plans is None:
        for i, s in enumerate(slots):
            visible[i, cache.visible_cells(s.seq_ids[0], s.pos)] = True
        groups = list(row_groups) if row_groups is not None else [n]
    else:
        groups, off = [], 0
        for plan_cells, plan_mask in plans:
            r = plan_mask.shape[0]
            visible[off : off + r, plan_cells] = plan_mask
            groups.append(r)
            off += r
    rot = model._rope_tables(positions)
    arena = ScratchArena()
    kvh, hd = cfg.n_kv_heads, cfg.head_dim
    group = cfg.n_heads // kvh
    h = arena.get("stage.h", (n, d))
    np.copyto(h, hidden)
    x = arena.get("stage.x", (n, d))
    tmp = arena.get("stage.tmp", (n, d))
    q2 = arena.get("stage.q", (n, d))
    k2 = arena.get("stage.k", (n, kv))
    v2 = arena.get("stage.v", (n, kv))
    attn2 = arena.get("stage.attn", (n, d))
    q = q2.reshape(n, cfg.n_heads, hd)
    k = k2.reshape(n, kvh, hd)
    attn4 = attn2.reshape(n, kvh, group, hd)
    per_plan = []
    a = 0
    for count in groups:
        for c0 in range(a, a + count, _ATTN_CHUNK):
            b = min(c0 + _ATTN_CHUNK, a + count)
            rows = visible[c0:b]
            used = np.flatnonzero(rows.any(axis=0))
            mask = rows[:, used]
            u = len(used)
            kc = np.empty((u, kv), dtype=cache.k.dtype)
            vc = np.empty((u, kv), dtype=cache.v.dtype)
            inv = ~mask[:, None, None, :]
            per_plan.append((
                used,
                inv if inv.any() else None,
                kc,
                vc,
                kc.reshape(u, kvh, hd).transpose(1, 2, 0),
                vc.reshape(u, kvh, hd).transpose(1, 0, 2),
                np.empty((b - c0, kvh, group, u)),
                np.empty((b - c0, kvh, group, 1)),
                q2[c0:b].reshape(b - c0, kvh, group, hd),
                attn4[c0:b],
            ))
        a += count
    if a != n:
        raise ValueError(f"row_groups sum to {a}, batch has {n} tokens")
    sqrt_hd = np.sqrt(hd)
    for layer in range(lo, hi):
        w = model.layers[layer]
        local = layer - lo
        rms_norm(h, w.attn_norm, out=x)
        np.matmul(x, w.wq, out=q2)
        np.matmul(x, w.wk, out=k2)
        np.matmul(x, w.wv, out=v2)
        apply_rope_tables(q, rot, out=q)
        apply_rope_tables(k, rot, out=k)
        cache.write(local, cells, k2, v2)
        ck, cv = cache.k[local], cache.v[local]
        for used, inv, kc, vc, kct, vct, scores, red, qg, og in per_plan:
            ck.take(used, axis=0, out=kc)
            cv.take(used, axis=0, out=vc)
            np.matmul(qg, kct, out=scores)
            scores /= sqrt_hd
            if inv is not None:
                np.copyto(scores, -np.inf, where=inv)
            scores -= scores.max(axis=-1, keepdims=True, out=red)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True, out=red)
            np.matmul(scores, vct, out=og)
        np.matmul(attn2, w.wo, out=tmp)
        h += tmp
        rms_norm(h, w.ffn_norm, out=x)
        swiglu(x, w.w_gate, w.w_up, w.w_down, arena=arena, out=tmp)
        h += tmp
    return h.copy()
