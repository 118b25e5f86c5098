"""Bitwise stage oracle: batched attention == per-plan attention.

``TinyTransformer.forward_stage`` gathers every attention plan's K/V with
one ``take`` and runs the elementwise softmax steps (scale, mask, row
max, shift, ``exp``, divide) once over a flat score buffer holding the
whole batch.  Only the score matmul, the row sums and the output matmul
stay per plan: their results depend on operand shapes (BLAS blocking,
pairwise summation), the rest does not.  So the batched form must equal,
byte for byte, the form that evaluates each plan alone
(:func:`oracles.stage.reference_forward_stage`).  A batching that
re-associates a sum fails here: one ``np.add.reduceat`` over every
plan's rows instead of a per-plan ``np.add.reduce`` changes almost every
row.

Shapes covered: fused worker windows (with freed-cell group splits and
tree runs), prefills longer than the 128-row attention chunk,
multi-sequence tree batches, strict masks and one-row draft batches.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.comm.payloads import CacheOp, CacheOpKind, DecodeMeta, TokenSlot
from repro.engines.backend import FunctionalBackend, StageRun
from repro.models.transformer import TinyTransformer, perturbed_copy
from oracles.stage import reference_forward_stage
from tests.conftest import TINY_CFG

MODEL = TinyTransformer(TINY_CFG)
DRAFT = perturbed_copy(MODEL, noise=0.15, seed=9)
LAYERS = (0, TINY_CFG.n_layers)
SEQ_END = 1 << 40

TOKENS = st.integers(0, TINY_CFG.vocab - 1)


class _Target:
    """``MODEL`` with ``forward_stage`` routed through ``stage`` (counted)."""

    def __init__(self, stage):
        self.stage = stage
        self.calls = 0

    def __getattr__(self, name):
        return getattr(MODEL, name)

    def forward_stage(self, *args, **kwargs):
        self.calls += 1
        return self.stage(*args, **kwargs)


def assert_stage_bitwise(cache, call):
    """Run ``call(forward_stage, cache)`` with the real stage and with the
    reference on a copy of ``cache``: outputs and K/V must be identical."""
    ref_cache = copy.deepcopy(cache)
    got = call(MODEL.forward_stage, cache)
    want = call(functools.partial(reference_forward_stage, MODEL), ref_cache)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(cache.k, ref_cache.k)
    assert np.array_equal(cache.v, ref_cache.v)


def slots_of(tokens, start, seq_ids):
    return [TokenSlot(t, start + i, seq_ids, True) for i, t in enumerate(tokens)]


def prefill(cache, tokens, seq_ids, start=0):
    """Write ``tokens`` into ``cache`` at ``start..`` for ``seq_ids``."""
    slots = slots_of(tokens, start, tuple(seq_ids))
    MODEL.forward_stage(MODEL.embed(slots), slots, cache, LAYERS)


# -- fused worker windows ---------------------------------------------------------


def cp(src, dst, p0, p1):
    return CacheOp(CacheOpKind.SEQ_CP, src, dst, p0, p1)


def rm(seq):
    return CacheOp(CacheOpKind.SEQ_RM, seq, seq, 0, SEQ_END)


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("spec"), st.lists(TOKENS, min_size=1, max_size=5), st.booleans()),
        st.tuples(st.just("canon"), TOKENS),
        st.tuples(st.just("tree"), st.lists(TOKENS, min_size=3, max_size=3)),
        st.tuples(st.just("release"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=8,
)


def build_window(tip, steps):
    """Engine-shaped window: spec dispatches with context copies, canonical
    steps, two-branch tree runs and partition releases (which free cells a
    later run in the window reuses, splitting the fused group)."""
    window, used = [], []
    canonical = tip
    seq = 1
    for step in steps:
        if step[0] == "spec":
            _, tokens, skip = step
            window.append([cp(0, seq, 0, canonical)])
            meta = DecodeMeta(seq, slots_of(tokens, canonical, (seq,)), True)
            window.append(StageRun(meta, None, skip=skip))
            used.append(seq)
            seq += 1
        elif step[0] == "canon":
            meta = DecodeMeta(100 + canonical, slots_of([step[1]], canonical, (0,)), True)
            window.append(StageRun(meta, None))
            canonical += 1
        elif step[0] == "tree":
            a, b = seq, seq + 1
            window.append([cp(0, a, 0, canonical), cp(0, b, 0, canonical)])
            root, left, right = step[1]
            slots = [
                TokenSlot(root, canonical, (a, b), True),
                TokenSlot(left, canonical + 1, (a,), True),
                TokenSlot(right, canonical + 1, (b,), True),
            ]
            window.append(StageRun(DecodeMeta(a, slots, True), None))
            used += [a, b]
            seq += 2
        elif used:
            window.append([rm(used[step[1] % len(used)])])
    if not any(isinstance(it, StageRun) and not it.skip for it in window):
        window.append(StageRun(DecodeMeta(999, slots_of([1], canonical, (0,)), True), None))
    return window


def clone(window):
    return [
        StageRun(it.meta, it.hidden, skip=it.skip) if isinstance(it, StageRun) else list(it)
        for it in window
    ]


def assert_window_bitwise(prompt, steps):
    """Fused window on the real stage == on the reference; returns the
    number of fused groups (``forward_stage`` calls) the window took."""
    results = []
    for stage in (MODEL.forward_stage, functools.partial(reference_forward_stage, MODEL)):
        backend = FunctionalBackend(MODEL, DRAFT, n_cells=96)
        backend.target = _Target(stage)
        ws = backend.make_worker_state(1, LAYERS, True, True)
        meta = DecodeMeta(0, slots_of(prompt, 0, (0,)), True)
        backend.compute_stage_multi(ws, [StageRun(meta, None)])
        backend.target.calls = 0
        outs = backend.compute_stage_multi(ws, clone(build_window(len(prompt), steps)))
        results.append((outs, ws.cache, backend.target.calls))
    (got, cache, groups), (want, ref_cache, _) = results
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert np.array_equal(g, w)
    assert np.array_equal(cache.k, ref_cache.k)
    assert np.array_equal(cache.v, ref_cache.v)
    return groups


@settings(max_examples=40, deadline=None)
@given(st.lists(TOKENS, min_size=1, max_size=12), STEPS)
def test_fused_windows_match_per_plan_reference(prompt, steps):
    assert_window_bitwise(prompt, steps)


def test_freed_cell_reuse_window_splits_and_matches():
    """A release mid-window frees cells the next run reuses: two groups."""
    steps = [("spec", [7, 8], False), ("release", 0), ("spec", [9, 2], False)]
    assert assert_window_bitwise([3, 1, 4], steps) == 2


# -- direct forward_stage shapes --------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(st.integers(129, 300), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_long_prefill_is_chunked_identically(n_long, n_short, seed):
    """Prefills past the 128-row chunk, alone and next to another run."""
    rng = np.random.default_rng(seed)
    long_tokens = [int(t) for t in rng.integers(0, TINY_CFG.vocab, n_long)]
    short_tokens = [int(t) for t in rng.integers(0, TINY_CFG.vocab, n_short)]
    slots = slots_of(long_tokens, 0, (0,))
    assert_stage_bitwise(
        MODEL.new_cache(400),
        lambda fwd, cache: fwd(MODEL.embed(slots), slots, cache, LAYERS),
    )
    both = slots_of(short_tokens, 0, (1,)) + slots
    assert_stage_bitwise(
        MODEL.new_cache(400),
        lambda fwd, cache: fwd(
            MODEL.embed(both), both, cache, LAYERS, row_groups=[n_short, n_long]
        ),
    )


@st.composite
def trees(draw):
    """(parents, tokens): node i hangs under ``parents[i]`` (-1: the prefix)."""
    n = draw(st.integers(1, 10))
    parents = [draw(st.integers(-1, i - 1)) for i in range(n)]
    return parents, draw(st.lists(TOKENS, min_size=n, max_size=n))


@settings(max_examples=30, deadline=None)
@given(st.lists(TOKENS, min_size=1, max_size=20), trees())
def test_tree_batch_over_many_sequences(prefix, tree):
    """A speculative tree batch: every root-to-leaf path is one sequence,
    so queries carry different sequences and share ancestor cells."""
    parents, tokens = tree
    n = len(parents)
    children = {i: [j for j in range(n) if parents[j] == i] for i in range(n)}
    leaves = [i for i in range(n) if not children[i]]
    seq_of_leaf = {leaf: 1 + k for k, leaf in enumerate(leaves)}

    def seqs_under(i):
        if not children[i]:
            return {seq_of_leaf[i]}
        return set().union(*(seqs_under(j) for j in children[i]))

    def depth(i):
        return 0 if parents[i] < 0 else 1 + depth(parents[i])

    cache = MODEL.new_cache(64)
    prefill(cache, prefix, range(1, len(leaves) + 1))
    slots = [
        TokenSlot(tokens[i], len(prefix) + depth(i), tuple(sorted(seqs_under(i))), True)
        for i in range(n)
    ]
    assert_stage_bitwise(
        cache, lambda fwd, c: fwd(MODEL.embed(slots), slots, c, LAYERS)
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 6)), min_size=1, max_size=5))
def test_strict_plans(runs):
    """Caller-built strict plans (a query does not see its own cell)."""
    cache = MODEL.new_cache(128)
    slots, plans = [], []
    for seq, (n_prefix, n_new) in enumerate(runs):
        prefill(cache, [(seq + i) % TINY_CFG.vocab for i in range(n_prefix)], (seq,))
    run_slots = [slots_of([(7 * seq + i) % TINY_CFG.vocab for i in range(n_new)], n_prefix, (seq,))
                 for seq, (n_prefix, n_new) in enumerate(runs)]
    cells = cache.allocate([(s.pos, s.seq_ids) for rs in run_slots for s in rs])
    for seq, rs in enumerate(run_slots):
        plans.append(cache.visible_matrix([seq] * len(rs), [s.pos for s in rs], inclusive=False))
        slots += rs
    assert_stage_bitwise(
        cache,
        lambda fwd, c: fwd(MODEL.embed(slots), slots, c, LAYERS, cells=cells, plans=plans),
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 24), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_one_row_draft_batches(prefix_lens, seed):
    """The draft plane's shape: one new token per chain, one group each."""
    rng = np.random.default_rng(seed)
    cache = MODEL.new_cache(256)
    for seq, n in enumerate(prefix_lens):
        prefill(cache, [int(t) for t in rng.integers(0, TINY_CFG.vocab, n)], (seq,))
    slots = [
        TokenSlot(int(rng.integers(0, TINY_CFG.vocab)), n, (seq,), True)
        for seq, n in enumerate(prefix_lens)
    ]
    assert_stage_bitwise(
        cache,
        lambda fwd, c: fwd(
            MODEL.embed(slots), slots, c, LAYERS, row_groups=[1] * len(slots)
        ),
    )
