"""Three-way differential test: vectorized KVCache == reference == ranges.

The vectorized membership-matrix :class:`KVCache` must be observably
indistinguishable from the retained pure-Python reference implementation
(:class:`ReferenceKVCache` — the original per-cell-set code) for *any*
op sequence, including per-op return values, allocation order, and full
per-cell metadata state.  :class:`RangeKVCache` (interval metadata, no
cell identity) must agree on every sequence-level observable.

This is the executable proof that the metadata-plane rewrites (the
membership matrix, then its sequence-major layout) changed
representation, not semantics.  After every op it also checks the two
facts compact visibility rests on: a cell that belongs to any sequence
is live, and ``visible_matrix``'s ``(cells, mask)`` expands to exactly
the reference's per-token ``visible_cells``.
"""

from hypothesis import given, settings, strategies as st

from repro.models.kv_cache import KVCache
from repro.models.range_cache import RangeKVCache
from oracles.kv_cache import ReferenceKVCache

N_SEQS = 6
MAX_POS = 30

SEQS = st.integers(0, N_SEQS - 1)
POS = st.integers(0, MAX_POS)
SEQ_SETS = st.sets(SEQS, min_size=1, max_size=3)


def pos_range():
    return st.tuples(POS, POS).map(lambda t: (min(t), max(t)))


op_strategy = st.one_of(
    st.tuples(st.just("alloc"), POS, SEQ_SETS),
    st.tuples(st.just("cp"), SEQS, SEQS, pos_range()),
    st.tuples(st.just("rm"), SEQS, pos_range()),
    st.tuples(st.just("bcast"), SEQS, pos_range(), st.sets(SEQS, max_size=3)),
)


def assert_same_state(vec: KVCache, ref: ReferenceKVCache, rng: RangeKVCache):
    """Full metadata equality (cell-level for vec/ref, seq-level for all)."""
    assert vec.n_used == ref.n_used
    assert list(vec.pos) == list(ref.pos)
    for cell in range(vec.n_cells):
        assert vec.seqs[cell] == ref.seqs[cell], f"cell {cell} diverged"
    for seq in range(N_SEQS):
        assert vec.seq_positions(seq) == ref.seq_positions(seq)
        assert vec.seq_positions(seq) == rng.seq_positions(seq)
        assert vec.seq_cells(seq) == ref.seq_cells(seq)
        assert vec.seq_max_pos(seq) == ref.seq_max_pos(seq) == rng.seq_max_pos(seq)
        for pos in range(MAX_POS + 1):
            assert vec.has_entry(seq, pos) == ref.has_entry(seq, pos)
            assert vec.has_entry(seq, pos) == rng.has_entry(seq, pos)
            assert list(vec.visible_cells(seq, pos)) == list(ref.visible_cells(seq, pos))
            assert list(vec.visible_cells(seq, pos, inclusive=False)) == list(
                ref.visible_cells(seq, pos, inclusive=False)
            )


#: Query positions of the per-op visibility check.
PROBES = (0, 7, 15, 23, MAX_POS)


def assert_compact_visibility(vec: KVCache, ref: ReferenceKVCache):
    """Membership implies liveness; compact visibility == reference."""
    assert (vec.pos[vec._member.any(axis=0)] >= 0).all()
    queries = [(s, p) for s in range(N_SEQS) for p in PROBES]
    for inclusive in (True, False):
        want = {q: list(ref.visible_cells(*q, inclusive=inclusive)) for q in queries}
        # One sequence per batch, then every query in one mixed batch.
        batches = [[(s, p) for p in PROBES] for s in range(N_SEQS)] + [queries]
        for batch in batches:
            cells, mask = vec.visible_matrix(
                [s for s, _ in batch], [p for _, p in batch], inclusive=inclusive
            )
            assert list(cells) == sorted(set(cells.tolist()))
            assert mask.shape == (len(batch), len(cells))
            assert mask.any(axis=0).all()
            for q, row in zip(batch, mask):
                assert list(cells[row]) == want[q]


@settings(max_examples=150, deadline=None)
@given(st.lists(op_strategy, max_size=30))
def test_three_way_equivalence(operations):
    vec = KVCache(n_cells=256)
    ref = ReferenceKVCache(n_cells=256)
    rng = RangeKVCache()
    for op in operations:
        if op[0] == "alloc":
            _, pos, seq_ids = op
            # The engines never double-write a (seq, pos) entry; keep the
            # modeled stream within that invariant (interval metadata
            # cannot represent duplicate cells at one position).
            if any(vec.has_entry(s, pos) for s in seq_ids):
                continue
            got_vec = vec.allocate([(pos, set(seq_ids))])
            got_ref = ref.allocate([(pos, set(seq_ids))])
            assert got_vec == got_ref  # identical allocation order
            for s in seq_ids:
                rng.add_tokens(s, [pos])
        elif op[0] == "cp":
            _, src, dst, (p0, p1) = op
            n_vec = vec.seq_cp(src, dst, p0, p1)
            assert n_vec == ref.seq_cp(src, dst, p0, p1)
            # RangeKVCache counts every clipped source position, even ones
            # the destination already holds — state must agree, the return
            # value is not comparable.
            rng.seq_cp(src, dst, p0, p1)
        elif op[0] == "rm":
            _, seq, (p0, p1) = op
            n_vec = vec.seq_rm(seq, p0, p1)
            assert n_vec == ref.seq_rm(seq, p0, p1)
            assert n_vec == rng.seq_rm(seq, p0, p1)
        else:
            _, src, (p0, p1), targets = op
            n_vec = vec.seq_broadcast(src, p0, p1, sorted(targets))
            assert n_vec == ref.seq_broadcast(src, p0, p1, sorted(targets))
            rng.seq_broadcast(src, p0, p1, sorted(targets))
        assert_compact_visibility(vec, ref)
    assert_same_state(vec, ref, rng)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(POS, SEQ_SETS), min_size=1, max_size=20))
def test_allocation_reuses_cells_in_reference_order(entries):
    """Interleaved allocate/free keeps vec and ref cell-for-cell aligned."""
    vec = KVCache(n_cells=64)
    ref = ReferenceKVCache(n_cells=64)
    for i, (pos, seq_ids) in enumerate(entries):
        assert vec.allocate([(pos, seq_ids)]) == ref.allocate([(pos, seq_ids)])
        if i % 3 == 2:  # periodically free a band and force heap reuse
            lo = max(0, pos - 4)
            for s in list(seq_ids):
                assert vec.seq_rm(s, lo, pos + 1) == ref.seq_rm(s, lo, pos + 1)
    assert list(vec.pos) == list(ref.pos)
    assert vec.n_used == ref.n_used


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(op_strategy, st.tuples(st.just("dup"), POS, SEQ_SETS)), max_size=30))
def test_compact_visibility_with_duplicate_cells(operations):
    """Duplicate ``(seq, pos)`` cells (which interval metadata cannot hold)
    keep the reference's semantics: both cells are visible, ``seq_cp``
    copies the lowest-indexed one."""
    vec = KVCache(n_cells=256)
    ref = ReferenceKVCache(n_cells=256)
    for op in operations:
        if op[0] in ("alloc", "dup"):
            _, pos, seq_ids = op
            assert vec.allocate([(pos, set(seq_ids))]) == ref.allocate([(pos, set(seq_ids))])
        elif op[0] == "cp":
            _, src, dst, (p0, p1) = op
            assert vec.seq_cp(src, dst, p0, p1) == ref.seq_cp(src, dst, p0, p1)
        elif op[0] == "rm":
            _, seq, (p0, p1) = op
            assert vec.seq_rm(seq, p0, p1) == ref.seq_rm(seq, p0, p1)
        else:
            _, src, (p0, p1), targets = op
            assert vec.seq_broadcast(src, p0, p1, sorted(targets)) == ref.seq_broadcast(
                src, p0, p1, sorted(targets)
            )
        assert_compact_visibility(vec, ref)
    for cell in range(vec.n_cells):
        assert vec.seqs[cell] == ref.seqs[cell]
