"""Stage attention visibility: tree branches and the per-batch mask.

``forward_stage`` attends each run over the cache cells its sequence can
see.  These tests pin what that visibility is: under
:func:`~repro.spec.tree.assign_tree_seqs` a tree node sees exactly its
ancestors and itself, and the visibility a fused all-layers stage reuses
across its layers gives the same logits as recomputing it per stage.
"""

import numpy as np

from repro.comm.payloads import TokenSlot
from repro.models.kv_cache import KVCache
from repro.models.transformer import TinyTransformer, TransformerConfig
from repro.spec.tree import SpecTree, assign_tree_seqs

from oracles.tree import tree_attention_mask

TOL = 1e-10


def test_tree_seq_visibility_is_the_ancestor_mask():
    """KV-cache visibility under tree sequence ids == the ancestor mask."""
    tree = SpecTree(base_pos=-1)  # roots at pos 0: self-contained batch
    a = tree.add(1, 0.9)
    b = tree.add(2, 0.8, parent=a)
    tree.add(3, 0.7, parent=a)
    tree.add(4, 0.6, parent=b)
    node_seqs = assign_tree_seqs(tree, seq_ids=[1, 2])
    n = len(tree)
    cache = KVCache(n_cells=n)
    cells = cache.allocate([(tree.nodes[i].pos, node_seqs[i]) for i in range(n)])
    mask = tree_attention_mask(tree)
    for i in range(n):
        vis = {int(x) for x in cache.visible_cells(min(node_seqs[i]), tree.nodes[i].pos)}
        assert vis == {cells[j] for j in range(n) if mask[i, j]}


def test_forward_stage_visibility_is_layer_independent():
    """The hoisted per-batch mask reproduces the per-layer loop's output.

    Decodes the same tokens through a 1-layer-per-stage split (visibility
    recomputed per stage) and the fused all-layers stage (one mask reused
    across every layer): identical logits.
    """
    cfg = TransformerConfig(
        vocab=64, d_model=32, n_layers=4, n_heads=4, n_kv_heads=2, d_ff=48, seed=3
    )
    model = TinyTransformer(cfg)
    tokens = [5, 9, 2, 7, 1]
    slots = [
        TokenSlot(token=t, pos=i, seq_ids=(0,), want_logits=(i == len(tokens) - 1))
        for i, t in enumerate(tokens)
    ]
    fused = model.decode(slots, model.new_cache(16))

    caches = [model.new_cache(16, (i, i + 1)) for i in range(cfg.n_layers)]
    hidden = model.embed(slots)
    for i, cache in enumerate(caches):
        hidden = model.forward_stage(hidden, slots, cache, (i, i + 1))
    split = model.output(hidden, [len(tokens) - 1])

    assert np.allclose(fused, split, atol=TOL)
