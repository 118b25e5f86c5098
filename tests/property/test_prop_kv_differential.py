"""Differential test: RangeKVCache == KVCache == ReferenceKVCache metadata.

The cluster simulation executes the engines' cache-op streams against
interval metadata while the functional level uses per-cell metadata; the
implementations must agree on every observable for any op sequence —
otherwise the performance experiments would be timing a different protocol
than the one proven correct.  The op alphabet covers every primitive the
multibuffer *and* the prefix-cache plane emit: fresh writes, ranged
``seq_cp``/``seq_rm``, and multi-target ``seq_broadcast`` (the prefix
cache's admission-sweep fan-out, one command materializing a shared
cached span into several requests' partitions).
"""

from hypothesis import given, settings, strategies as st

from repro.models.kv_cache import KVCache
from repro.models.range_cache import RangeKVCache
from oracles.kv_cache import ReferenceKVCache

SEQS = st.integers(0, 4)
POS = st.integers(0, 30)


def pos_range():
    return st.tuples(POS, POS).map(lambda t: (min(t), max(t)))


op_strategy = st.one_of(
    st.tuples(st.just("add"), SEQS, POS),
    st.tuples(st.just("cp"), SEQS, SEQS, pos_range()),
    st.tuples(st.just("rm"), SEQS, pos_range()),
    st.tuples(
        st.just("bcast"), SEQS, pos_range(),
        st.lists(SEQS, min_size=1, max_size=3, unique=True),
    ),
)


@settings(max_examples=200)
@given(st.lists(op_strategy, max_size=40))
def test_metadata_equivalence(operations):
    cell = KVCache(n_cells=512)
    ref = ReferenceKVCache(n_cells=512)
    rng = RangeKVCache()
    for op in operations:
        if op[0] == "add":
            _, seq, pos = op
            # Both caches reject double-writes at the engine level; model a
            # fresh write only when the (seq, pos) cell does not exist.
            if cell.has_entry(seq, pos):
                continue
            cell.allocate([(pos, {seq})])
            ref.allocate([(pos, {seq})])
            rng.add_tokens(seq, [pos])
        elif op[0] == "cp":
            _, src, dst, (p0, p1) = op
            n = cell.seq_cp(src, dst, p0, p1)
            assert n == ref.seq_cp(src, dst, p0, p1)
            rng.seq_cp(src, dst, p0, p1)
        elif op[0] == "rm":
            _, seq, (p0, p1) = op
            n = cell.seq_rm(seq, p0, p1)
            assert n == ref.seq_rm(seq, p0, p1)
            rng.seq_rm(seq, p0, p1)
        else:
            _, src, (p0, p1), targets = op
            n = cell.seq_broadcast(src, p0, p1, targets)
            assert n == ref.seq_broadcast(src, p0, p1, targets)
            rng.seq_broadcast(src, p0, p1, targets)
    for seq in range(5):
        assert cell.seq_positions(seq) == rng.seq_positions(seq), (
            f"sequence {seq} diverged"
        )
        assert cell.seq_positions(seq) == ref.seq_positions(seq), (
            f"sequence {seq} diverged from the reference"
        )
        assert cell.seq_max_pos(seq) == rng.seq_max_pos(seq) == ref.seq_max_pos(seq)
        for pos in range(31):
            assert (
                cell.has_entry(seq, pos)
                == rng.has_entry(seq, pos)
                == ref.has_entry(seq, pos)
            )
