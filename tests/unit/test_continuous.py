"""Reactive confidence-cutoff controller (paper IV-B2)."""

import pytest

from repro.core.continuous import CutoffController


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
