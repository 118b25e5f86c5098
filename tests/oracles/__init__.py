"""Reference implementations the differential tests compare against.

They are executable specifications, not engine code: each is the simple,
slow form of a structure ``src/`` implements fast, and a test drives both
with the same inputs and asserts the same observable behaviour.

- :class:`~oracles.sim_kernel.ReferenceSimKernel`: one binary heap
  keyed by ``(time, seq)``, against ``repro.cluster.kernel.SimKernel``;
- :class:`~oracles.kv_cache.ReferenceKVCache`: per-cell sets of
  sequence ids, against ``repro.models.kv_cache.KVCache`` and
  ``repro.models.range_cache.RangeKVCache``.
- :func:`~oracles.stage.compute_stage`: one run's functional stage
  evaluated on its own, against the fused window of
  ``repro.engines.backend.FunctionalBackend.compute_stage_multi``;
- :func:`~oracles.stage.reference_forward_stage`: per-plan attention
  (own gather, own softmax), against the batched attention of
  ``repro.models.transformer.TinyTransformer.forward_stage``, bitwise.
"""
