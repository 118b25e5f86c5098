"""Oracle statistical properties."""

from hypothesis import given, settings, strategies as st

from repro.models.oracle import DraftOracle, OracleLM, make_aligned_pair


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95), st.integers(0, 1000))
def test_acceptance_rate_converges(alpha, seed):
    target = OracleLM(seed=seed)
    draft = DraftOracle(target, acceptance=alpha, seed=seed + 1)
    n = 3000
    agree = sum(
        draft.next_token([seed, i]) == target.next_token([seed, i]) for i in range(n)
    )
    assert abs(agree / n - alpha) < 0.05


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 500))
def test_state_advance_associativity(seed):
    """Incremental state equals batch state for any split point."""
    o = OracleLM(seed=seed)
    tokens = [seed % 97, 3, 14, 15, 92, 65]
    for split in range(len(tokens) + 1):
        s = o.init_state(tokens[:split])
        for t in tokens[split:]:
            s = o.advance(s, t)
        assert s == o.init_state(tokens)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.2, 0.9))
def test_calibrated_pair_hits_measured_rate(measured):
    cutoff = 0.30
    target, draft = make_aligned_pair(measured, seed=7, cutoff=cutoff)
    passed = agreed = 0
    for i in range(6000):
        state = target.init_state([i])
        if draft.confidence_from_state(state) >= cutoff:
            passed += 1
            agreed += int(
                draft.next_token_from_state(state) == target.next_token_from_state(state)
            )
    assert passed > 0
    assert abs(agreed / passed - measured) < 0.05
