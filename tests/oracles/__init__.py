"""Reference implementations the differential tests compare against.

They are executable specifications, not engine code: each is the simple,
slow form of a structure ``src/`` implements fast, and a test drives both
with the same inputs and asserts the same observable behaviour.

- :class:`~oracles.sim_kernel.ReferenceSimKernel`: one binary heap
  keyed by ``(time, seq)``, against ``repro.cluster.kernel.SimKernel``;
- :class:`~oracles.kv_cache.ReferenceKVCache`: per-cell sets of
  sequence ids, against ``repro.models.kv_cache.KVCache`` and
  ``repro.models.range_cache.RangeKVCache``;
- :func:`~oracles.stage.compute_stage`: one run's functional stage
  evaluated on its own, against the fused window of
  ``repro.engines.backend.FunctionalBackend.compute_stage_multi``;
- :func:`~oracles.stage.reference_forward_stage`: per-plan attention
  (own gather, own softmax), against the batched attention of
  ``repro.models.transformer.TinyTransformer.forward_stage``, bitwise;
- :func:`~oracles.layers.apply_rope`: RoPE as explicit real pair
  rotations, against the complex-rotor
  ``repro.models.layers.apply_rope_tables``;
- :mod:`oracles.tree`: the explicit ancestor mask, the mask sequence
  metadata implies, branch ownership and ancestry walks, against
  ``repro.spec.tree.assign_tree_seqs``, ``repro.spec.verify.verify_tree``
  and the drafter's cursor trees;
- :func:`~oracles.run_state.find_token_mismatches`: the paper's literal
  token-wise invalidation scan, against
  ``repro.core.run_state.RunFIFO.invalidate_after``;
- :func:`~oracles.blocking.recv` and :func:`~oracles.blocking.probe`:
  the parked MPI receive and probe, built on the delivery listeners that
  replaced them in ``repro.comm.mpi_sim.Endpoint``, for tests that script
  a pipeline neighbour as a generator process.
"""
