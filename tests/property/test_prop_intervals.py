"""IntervalSet vs a plain set-of-integers model."""

from hypothesis import given, strategies as st

from repro.models.range_cache import IntervalSet, RangeKVCache

ranges = st.tuples(st.integers(0, 60), st.integers(0, 60)).map(
    lambda t: (min(t), max(t))
)
ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), ranges), min_size=0, max_size=30
)


def _running_sum(steps):
    out, pos = [], 0
    for step in steps:
        pos += step
        out.append(pos)
    return out


# The worker's common case: single-position adds that only move forward,
# sometimes skipping positions (the O(1) append/extend path).
monotone_adds = st.lists(st.integers(0, 3), min_size=0, max_size=40).map(
    lambda steps: [("add", (p, p + 1)) for p in _running_sum(steps)]
)


@st.composite
def spanning_ops(draw):
    """Scattered short intervals, then adds and removes spanning several,
    their ends often exactly on an existing interval's boundary."""
    starts = sorted(set(draw(st.lists(st.integers(0, 100), min_size=2, max_size=12))))
    seeded = [("add", (s, s + draw(st.integers(1, 3)))) for s in starts]
    points = sorted({p for _, (a, b) in seeded for p in (a, b)})
    end = st.one_of(st.sampled_from(points), st.integers(0, 110))
    spans = st.tuples(end, end).map(lambda t: (min(t), max(t)))
    rest = draw(st.lists(st.tuples(st.sampled_from(["add", "remove"]), spans), max_size=8))
    return seeded + rest


#: Random ops plus the two structured shapes above.
all_ops = st.one_of(ops, monotone_adds, spanning_ops())


def apply_model(operations):
    model: set[int] = set()
    ival = IntervalSet()
    for op, (lo, hi) in operations:
        if op == "add":
            model |= set(range(lo, hi))
            ival.add(lo, hi)
        else:
            gone = model & set(range(lo, hi))
            model -= gone
            assert ival.remove(lo, hi) == len(gone)
    return model, ival


@given(all_ops)
def test_positions_match_set_model(operations):
    model, ival = apply_model(operations)
    assert set(ival.positions()) == model
    assert len(ival) == len(model)


@given(all_ops)
def test_intervals_are_disjoint_sorted_nonempty(operations):
    _, ival = apply_model(operations)
    ivals = ival.intervals()
    for lo, hi in ivals:
        assert lo < hi
    for (a0, a1), (b0, b1) in zip(ivals, ivals[1:]):
        assert a1 < b0  # disjoint with a gap (touching would have merged)


@given(all_ops, ranges)
def test_clip_matches_set_intersection(operations, clip_range):
    model, ival = apply_model(operations)
    lo, hi = clip_range
    clipped = ival.clip(lo, hi)
    assert set(clipped.positions()) == model & set(range(lo, hi))


@given(all_ops)
def test_max_value(operations):
    model, ival = apply_model(operations)
    assert ival.max_value() == (max(model) if model else -1)


@given(all_ops, st.integers(0, 60))
def test_contains(operations, probe):
    model, ival = apply_model(operations)
    assert (probe in ival) == (probe in model)


@given(all_ops, st.lists(st.integers(0, 120), max_size=20))
def test_add_tokens_equals_one_add_per_position(operations, positions):
    """One ``add_tokens`` call over a run's positions (any order, with
    repeats) leaves the same intervals as one ``add`` per position."""
    cache = RangeKVCache()
    for op, (lo, hi) in operations:
        if op == "add":
            cache.add_tokens(0, range(lo, hi))
        else:
            cache.seq_rm(0, lo, hi)
    _, single = apply_model(operations)
    cache.add_tokens(0, positions)
    for p in positions:
        single.add(p, p + 1)
    assert cache.seq_positions(0) == single.positions()
