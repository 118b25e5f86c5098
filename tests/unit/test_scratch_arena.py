"""Scratch arenas and row-grouped attention: recycling must be invisible.

The model kernels reuse preallocated ``out=`` buffers across decode
batches of the same shape.  These tests pin the two invariants the
engines rely on:

- arena-backed kernel calls are byte-identical to the allocating forms;
- a fused batch evaluated with ``row_groups`` produces, for every group,
  exactly the bytes that group would produce decoded on its own (the
  per-run determinism contract behind token-equivalent fusion).
"""

import copy

import numpy as np

from repro.comm.payloads import TokenSlot
from repro.models.kv_cache import KVCache
from repro.models.layers import (
    ScratchArena,
    apply_rope_tables,
    rms_norm,
    silu,
    swiglu,
)
from repro.models.transformer import TinyTransformer, TransformerConfig

CFG = TransformerConfig(
    vocab=64, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=32, seed=3
)


def test_arena_reuses_buffer_for_same_shape_and_dtype():
    arena = ScratchArena()
    a = arena.get("x", (4, 8))
    b = arena.get("x", (4, 8))
    assert a is b
    assert arena.n_hits == 1 and arena.n_misses == 1
    c = arena.get("x", (5, 8))  # shape change reallocates
    assert c is not a and c.shape == (5, 8)
    d = arena.get("x", (5, 8), dtype=np.float32)  # dtype change too
    assert d is not c and d.dtype == np.float32
    assert arena.n_misses == 3


def test_out_forms_match_allocating_forms_bytewise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 16))
    w = rng.normal(size=16)
    ref = rms_norm(x, w)
    out = np.empty_like(x)
    assert rms_norm(x, w, out=out) is out
    assert out.tobytes() == ref.tobytes()

    ref = silu(x)
    out = np.empty_like(x)
    silu(x, out=out, scratch=np.empty_like(x))
    assert out.tobytes() == ref.tobytes()

    rot = np.exp(1j * rng.normal(size=(3, 1, 4)))
    ref = apply_rope_tables(x.reshape(3, 2, 8), rot)
    out = np.empty((3, 2, 8))
    apply_rope_tables(x.reshape(3, 2, 8), rot, out=out)
    assert out.tobytes() == ref.tobytes()

    w_gate = rng.normal(size=(16, 32))
    w_up = rng.normal(size=(16, 32))
    w_down = rng.normal(size=(32, 16))
    ref = swiglu(x, w_gate, w_up, w_down)
    arena = ScratchArena()
    out = np.empty_like(x)
    swiglu(x, w_gate, w_up, w_down, arena=arena, out=out)
    assert out.tobytes() == ref.tobytes()
    # Second call through the same arena recycles every scratch buffer.
    misses = arena.n_misses
    swiglu(x, w_gate, w_up, w_down, arena=arena, out=out)
    assert arena.n_misses == misses
    assert out.tobytes() == ref.tobytes()


def _prefill(model, cache, seq, tokens):
    for pos, tok in enumerate(tokens):
        slot = TokenSlot(token=tok, pos=pos, seq_ids=(seq,))
        model.decode([slot], cache)


def test_shared_arena_across_decode_steps_is_byte_identical():
    model = TinyTransformer(CFG)
    cache_a = KVCache(64, n_layers=CFG.n_layers, kv_dim=CFG.kv_dim)
    cache_b = KVCache(64, n_layers=CFG.n_layers, kv_dim=CFG.kv_dim)
    arena = ScratchArena()
    for pos, tok in enumerate([3, 9, 27, 17, 5, 11]):
        slot = TokenSlot(token=tok, pos=pos, seq_ids=(0,))
        fresh = model.decode([slot], cache_a)  # private arena per call
        shared = model.decode([slot], cache_b, arena=arena)
        assert shared.tobytes() == fresh.tobytes()
    assert cache_a.k.tobytes() == cache_b.k.tobytes()
    assert arena.n_hits > arena.n_misses  # the buffers actually recycled


def test_row_groups_match_each_group_decoded_alone():
    """Per-group attention sees only that group's cells: fused rows agree
    with the per-group solo decodes to BLAS reassociation noise, and pick
    the same tokens (the fusion contract the integration suites pin).
    Bitwise equality across batch sizes is *not* available — BLAS row
    results depend on the batch's M dimension — which is exactly why the
    engine's fusion contract is token-level."""
    model = TinyTransformer(CFG)
    cache = KVCache(64, n_layers=CFG.n_layers, kv_dim=CFG.kv_dim)
    _prefill(model, cache, seq=0, tokens=[3, 9, 27, 17])
    _prefill(model, cache, seq=1, tokens=[8, 2, 44])

    slot0 = TokenSlot(token=5, pos=4, seq_ids=(0,))
    slot1 = TokenSlot(token=60, pos=3, seq_ids=(1,))

    fused_cache = copy.deepcopy(cache)
    fused = model.decode([slot0, slot1], fused_cache, row_groups=[1, 1])

    solo = []
    for slot in (slot0, slot1):
        solo_cache = copy.deepcopy(cache)
        solo.append(model.decode([slot], solo_cache)[0])
    for row, alone in zip(fused, solo):
        np.testing.assert_allclose(row, alone, rtol=1e-12, atol=1e-12)
        assert int(np.argmax(row)) == int(np.argmax(alone))


def test_single_group_row_groups_is_bitwise_the_default_path():
    """``row_groups=[n]`` must be exactly the ``row_groups=None`` bytes —
    the differential contract between the batched draft plane and the
    singleton propose path."""
    model = TinyTransformer(CFG)
    cache_a = KVCache(64, n_layers=CFG.n_layers, kv_dim=CFG.kv_dim)
    cache_b = KVCache(64, n_layers=CFG.n_layers, kv_dim=CFG.kv_dim)
    slots = [
        TokenSlot(token=3, pos=0, seq_ids=(0,)),
        TokenSlot(token=9, pos=1, seq_ids=(0,)),
        TokenSlot(token=27, pos=2, seq_ids=(0,)),
    ]
    default = model.decode(slots, cache_a)
    grouped = model.decode(slots, cache_b, row_groups=[3])
    assert default.tobytes() == grouped.tobytes()
    assert cache_a.k.tobytes() == cache_b.k.tobytes()


def test_row_groups_must_cover_the_batch():
    model = TinyTransformer(CFG)
    cache = KVCache(64, n_layers=CFG.n_layers, kv_dim=CFG.kv_dim)
    slots = [
        TokenSlot(token=1, pos=0, seq_ids=(0,)),
        TokenSlot(token=2, pos=0, seq_ids=(1,)),
    ]
    try:
        model.decode(slots, cache, row_groups=[1])
    except ValueError as exc:
        assert "row_groups" in str(exc)
    else:  # pragma: no cover - defends the assertion
        raise AssertionError("short row_groups was accepted")
