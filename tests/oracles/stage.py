"""Per-run stage evaluation on the functional backend.

The fused == sequential suite (``tests/property/test_prop_fusion.py``)
compares :meth:`~repro.engines.backend.FunctionalBackend.compute_stage_multi`
against this form: one run at a time, its KV cells allocated and its
layers evaluated on their own.
"""

from __future__ import annotations

import numpy as np

from repro.models.kv_cache import KVCache


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
