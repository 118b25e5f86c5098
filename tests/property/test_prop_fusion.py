"""Differential property test: fused multi-run execution == sequential.

The fusion window's contract is that evaluating a window of decode runs
(with cache-op batches interleaved between them) as one fused cross-run
batch is observationally identical to evaluating each transaction in
order, one at a time:

- identical per-run activations (<= 1e-10, in practice ~1e-14: the
  projections and the MLP run over the whole window's rows, and BLAS
  makes a row of ``x @ W`` depend on the batch height — a one-row
  product takes a different kernel than the same row inside a taller
  batch.
  The attention is evaluated per run, so given the same inputs it is
  bitwise the run's own: ``tests/property/test_prop_stage_bitwise.py``);
- identical KV metadata afterwards (allocation order, membership, frees);
- identical output record order, including under mid-fusion cancellation
  (a skipped run keeps its slot and produces no cells).

Windows are built both from hand-written hazard scenarios (same-sequence
chained runs, freed-cell reuse forcing a group split) and from a seeded
random generator mimicking the engines' dispatch pattern.
"""

import numpy as np
import pytest

from repro.comm.payloads import CacheOp, CacheOpKind, DecodeMeta, TokenSlot
from repro.engines.backend import FunctionalBackend, StageRun, apply_cache_op
from repro.models.transformer import TinyTransformer, perturbed_copy
from oracles.stage import compute_stage
from tests.conftest import TINY_CFG

SEQ_END = 1 << 40
ATOL = 1e-10

PROMPT = [3, 1, 4, 1, 5, 9]


def make_backend(n_cells=64):
    target = TinyTransformer(TINY_CFG)
    draft = perturbed_copy(target, noise=0.15, seed=9)
    return FunctionalBackend(target, draft, n_cells=n_cells)


def prefill_state(backend):
    """A worker state whose canonical sequence holds the prompt."""
    ws = backend.make_worker_state(1, (0, backend.n_target_layers), True, True)
    slots = [TokenSlot(t, i, (0,), True) for i, t in enumerate(PROMPT)]
    compute_stage(backend, ws, DecodeMeta(0, slots, False), None)
    return ws


def run_decode(run_id, tokens, start, seq, skip=False):
    slots = [TokenSlot(t, start + i, (seq,), True) for i, t in enumerate(tokens)]
    return StageRun(DecodeMeta(run_id, slots, True), None, skip=skip)


def clone_window(window):
    """Fresh StageRun objects (outputs/skips must not leak across runs)."""
    out = []
    for item in window:
        if isinstance(item, StageRun):
            out.append(StageRun(item.meta, item.hidden, skip=item.skip))
        else:
            out.append(list(item))
    return out


def run_sequential(backend, ws, window):
    """Reference semantics: every transaction applied strictly in order."""
    outs = []
    for item in window:
        if isinstance(item, StageRun):
            outs.append(
                None if item.skip
                else compute_stage(backend, ws, item.meta, item.hidden)
            )
        else:
            for op in item:
                apply_cache_op(ws.cache, op)
    return outs


def metadata_snapshot(cache, n_seqs=12):
    return {
        "used": cache.n_used,
        "seqs": {s: cache.seq_positions(s) for s in range(n_seqs)},
    }


def assert_equivalent(window):
    backend = make_backend()
    ws_fused = prefill_state(backend)
    ws_seq = prefill_state(backend)
    fused = backend.compute_stage_multi(ws_fused, clone_window(window))
    seq = run_sequential(backend, ws_seq, clone_window(window))
    runs = [it for it in window if isinstance(it, StageRun)]
    assert len(fused) == len(seq) == len(runs)
    for i, (f, s) in enumerate(zip(fused, seq)):
        if s is None:
            assert f is None, f"run {i}: fused produced output for a skipped run"
        else:
            assert f is not None, f"run {i}: fused dropped a live run"
            np.testing.assert_allclose(f, s, atol=ATOL, rtol=0)
    assert metadata_snapshot(ws_fused.cache) == metadata_snapshot(ws_seq.cache)


def cp(src, dst, p0, p1):
    return CacheOp(CacheOpKind.SEQ_CP, src, dst, p0, p1)


def rm(seq, p0=0, p1=SEQ_END):
    return CacheOp(CacheOpKind.SEQ_RM, seq, seq, p0, p1)


class TestHandBuiltWindows:
    def test_disjoint_spec_runs_with_context_ops(self):
        """The serving-mode shape: ops + decode per run, distinct seqs."""
        tip = len(PROMPT)
        assert_equivalent([
            [cp(0, 1, 0, tip)],
            run_decode(1, [7, 8], tip, 1),
            [cp(0, 2, 0, tip)],
            run_decode(2, [9], tip, 2),
            [cp(0, 3, 0, tip)],
            run_decode(3, [2, 6, 5], tip, 3),
        ])

    def test_same_sequence_chained_runs(self):
        """Two canonical runs of one request in one window: the second
        attends over the cell the first writes *within the window*."""
        tip = len(PROMPT)
        assert_equivalent([
            run_decode(1, [7], tip, 0),
            run_decode(2, [8], tip + 1, 0),
            run_decode(3, [2], tip + 2, 0),
        ])

    def test_skip_run_keeps_slot_and_writes_nothing(self):
        tip = len(PROMPT)
        assert_equivalent([
            [cp(0, 1, 0, tip)],
            run_decode(1, [7, 8], tip, 1, skip=True),
            [cp(0, 2, 0, tip)],
            run_decode(2, [9], tip, 2),
        ])

    def test_freed_cell_reuse_splits_the_batch(self):
        """A mid-window seq_rm frees cells a later run's allocation reuses:
        the earlier run must read the old K/V, the later run the new."""
        tip = len(PROMPT)
        window = [
            [cp(0, 1, 0, tip)],
            run_decode(1, [7, 8], tip, 1),
            [rm(1)],                      # frees run 1's fresh cells
            [cp(0, 2, 0, tip)],
            run_decode(2, [9, 2], tip, 2),  # reuses the freed indices
        ]
        # Confirm the hazard is real: run 2 must reuse freed cell indices.
        backend = make_backend()
        ws = prefill_state(backend)
        backend.compute_stage_multi(ws, clone_window(window))
        assert_equivalent(window)

    def test_interleaved_acceptance_and_release(self):
        """Acceptance copy into canonical + partition release mid-window."""
        tip = len(PROMPT)
        assert_equivalent([
            [cp(0, 1, 0, tip)],
            run_decode(1, [7, 8], tip, 1),
            [cp(1, 0, tip, tip + 1), rm(1)],
            run_decode(2, [7], tip, 0),
            [cp(0, 2, 0, tip + 1)],
            run_decode(3, [4], tip + 1, 2),
        ])


class TestRandomWindows:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_dispatch_pattern(self, seed):
        """Engine-shaped random windows: spec dispatches with context
        copies, canonical chains, occasional skips and releases."""
        rng = np.random.default_rng(seed)
        tip = len(PROMPT)
        window = []
        canonical_next = tip
        next_seq = 1
        for _ in range(int(rng.integers(2, 7))):
            kind = rng.random()
            if kind < 0.5:  # speculative dispatch: context ops + decode
                seq = next_seq
                next_seq += 1
                window.append([cp(0, seq, 0, canonical_next)])
                n = int(rng.integers(1, 4))
                toks = [int(t) for t in rng.integers(0, TINY_CFG.vocab, n)]
                window.append(
                    run_decode(seq + 100, toks, canonical_next, seq,
                               skip=bool(rng.random() < 0.2))
                )
            elif kind < 0.8:  # canonical chain step
                tok = int(rng.integers(0, TINY_CFG.vocab))
                window.append(run_decode(canonical_next + 500, [tok],
                                         canonical_next, 0))
                canonical_next += 1
            elif next_seq > 1:  # release a previously used partition
                window.append([rm(int(rng.integers(1, next_seq)))])
        if not any(isinstance(it, StageRun) for it in window):
            window.append(run_decode(999, [1], canonical_next, 0))
        assert_equivalent(window)
