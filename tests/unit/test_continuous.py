"""Reactive confidence-cutoff controller (paper IV-B2)."""

import copy
import math
from itertools import islice

import pytest

from repro.cluster.kernel import SimKernel
from repro.core.continuous import CutoffController, retry_windows


def make(base=0.3, recovery=0.1, decay=0.05):
    return CutoffController(base, recovery, decay)


def test_starts_at_base():
    assert make().current == 0.3


def test_recovery_builds_gradient():
    c = make()
    c.on_dispatched()
    c.on_dispatched()
    assert c.current == pytest.approx(0.5)


def test_acceptance_resets_to_base():
    c = make()
    for _ in range(4):
        c.on_dispatched()
    c.on_accepted()
    assert c.current == 0.3


def test_decay_lowers_threshold():
    c = make()
    c.on_failed_idle()
    assert c.current == pytest.approx(0.25)


def test_ceiling_clamp():
    c = make(recovery=0.5)
    for _ in range(10):
        c.on_dispatched()
    assert c.current == c.ceiling


def test_floor_clamp():
    c = make(decay=0.5)
    for _ in range(10):
        c.on_failed_idle()
    assert c.current == c.floor


def test_invalid_base():
    with pytest.raises(ValueError):
        CutoffController(1.5, 0.1, 0.1)


def test_negative_factors_rejected():
    with pytest.raises(ValueError):
        CutoffController(0.3, -0.1, 0.1)


def test_adaptation_cycle():
    """Gradient up under speculation, down when idle, reset on accept —
    the full reactive cycle from the paper."""
    c = make(base=0.4, recovery=0.2, decay=0.1)
    c.on_dispatched()          # 0.6
    c.on_dispatched()          # 0.8
    c.on_failed_idle()         # 0.7
    assert c.current == pytest.approx(0.7)
    c.on_accepted()
    assert c.current == 0.4


# ---------------------------------------------------------------------------
# The idle decay schedule.
# ---------------------------------------------------------------------------


def naive_failures(ctl, conf, limit=10_000):
    """Failed attempts before ``conf`` clears, by running the decay loop on
    a copy of the controller; None if it has not cleared after ``limit``."""
    ctl = copy.copy(ctl)
    for k in range(limit):
        if not conf < ctl.current:
            return k
        ctl.on_failed_idle()
    return None


def test_conf_at_or_above_cutoff_needs_no_failure():
    c = make()
    assert c.failed_attempts_before(0.3) == 0
    assert c.failed_attempts_before(0.9) == 0


def test_failures_match_the_decay_loop():
    c = make(base=0.6, decay=0.03)
    for conf in (0.59, 0.5, 0.41, 0.3, 0.1, 0.02):
        assert c.failed_attempts_before(conf) == naive_failures(c, conf)
    assert c.failed_attempts_before(0.57) == 1


def test_count_does_not_change_the_controller():
    c = make()
    c.failed_attempts_before(0.1)
    assert c.current == 0.3


def test_count_is_exact_where_the_quotient_is_not():
    """Repeated subtraction rounds: 0.29 - 6 x 0.03 lands just above the
    confidence, so the seventh decay is the one that clears it."""
    c = make(base=0.29, decay=0.03)
    conf = 0.29 - 6 * 0.03
    assert math.ceil((c.current - conf) / c.decay) == 6
    assert c.failed_attempts_before(conf) == naive_failures(c, conf) == 7


def test_floor_clamp_never_clears():
    c = make(decay=0.05)
    assert c.failed_attempts_before(c.floor / 2) is None
    assert naive_failures(c, c.floor / 2) is None
    # Exactly the floor clears once the decay reaches it.
    assert c.failed_attempts_before(c.floor) == naive_failures(c, c.floor)


def test_zero_decay_never_clears():
    c = make(decay=0.0)
    assert c.failed_attempts_before(0.29) is None
    assert c.failed_attempts_before(0.3) == 0


def test_count_from_the_ceiling():
    c = make(base=1.0, decay=0.005)
    assert c.current == c.ceiling
    assert c.failed_attempts_before(c.ceiling) == 0
    assert c.failed_attempts_before(0.9) == naive_failures(c, 0.9) == 14
    c = make(recovery=0.5)
    for _ in range(3):
        c.on_dispatched()
    assert c.current == c.ceiling
    assert c.failed_attempts_before(0.5) == naive_failures(c, 0.5)


def polled_windows(end, draft_time, idle_poll, n):
    """Retry instants as a kernel reaches them: ``call_after(idle_poll)``
    per wait, ``call_at(now + draft_time)`` per draft pass."""
    kernel = SimKernel()
    got = []

    def wait():
        kernel.call_after(idle_poll, draft)

    def draft():
        start = kernel.now
        kernel.call_at(kernel.now + draft_time, lambda: done(start))

    def done(start):
        got.append((start, kernel.now))
        if len(got) < n:
            wait()

    kernel.call_at(end, wait)
    kernel.run()
    return got


@pytest.mark.parametrize(
    "end, draft_time, idle_poll",
    [(0.1, 0.3, 2e-4), (1.5018256178447797, 0.0123, 2e-4), (12.7, 1e-4, 1e-5)],
)
def test_retry_windows_are_the_kernel_instants(end, draft_time, idle_poll):
    want = polled_windows(end, draft_time, idle_poll, 40)
    assert list(islice(retry_windows(end, draft_time, idle_poll), 40)) == want
