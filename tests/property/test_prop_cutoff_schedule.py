"""The idle head's decay schedule equals the retry loop it replaces.

An idle PipeInfer head no longer retries its draft every ``idle_poll``:
it predicts how many retries fail (:meth:`CutoffController.failed_attempts_before`)
and when each one would start (:func:`retry_windows`).  Both must equal
the loop exactly, float for float, over arbitrary controller states.
"""

from itertools import islice

from hypothesis import given, settings, strategies as st

from repro.core.continuous import CutoffController, retry_windows
from tests.unit.test_continuous import naive_failures, polled_windows

unit = st.floats(0.0, 1.0)


@st.composite
def controllers(draw):
    """A controller after an arbitrary dispatch / failure history."""
    ctl = CutoffController(
        base=draw(unit),
        recovery=draw(st.floats(0.0, 0.3)),
        decay=draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.3))),
    )
    for dispatched in draw(st.lists(st.booleans(), max_size=8)):
        if dispatched:
            ctl.on_dispatched()
        else:
            ctl.on_failed_idle()
    return ctl


@settings(max_examples=300, deadline=None)
@given(controllers(), unit)
def test_failure_count_equals_the_decay_loop(ctl, conf):
    before = ctl.current
    assert ctl.failed_attempts_before(conf) == naive_failures(ctl, conf)
    assert ctl.current == before


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.0, 100.0),
    st.floats(1e-6, 0.05),
    st.floats(1e-6, 1e-3),
    st.integers(1, 30),
)
def test_retry_instants_equal_the_kernel_timestamps(end, draft_time, idle_poll, n):
    replay = list(islice(retry_windows(end, draft_time, idle_poll), n))
    assert replay == polled_windows(end, draft_time, idle_poll, n)
