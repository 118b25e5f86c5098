"""Per-stage health tracking with hysteresis, gating speculation depth.

Every fault signal (a retransmission timeout toward a rank, a worker
crash) bumps that rank's exponentially-decayed fault score; straggler
windows force their rank degraded outright.  A rank whose score crosses
``hi`` is *degraded*; it only recovers once the score decays below ``lo``
— the hysteresis gap is the "stable window" graceful degradation requires
before speculation resumes.  The serving head checks :meth:`degraded`
each scheduling round and gates speculative drafting to depth 0 while any
rank is unhealthy (speculative work is disposable, so shedding it first
is the cheapest way to stop feeding a flapping link).  It never polls:
while degraded it parks until :meth:`recovery_time` — the instant the
decaying scores reopen the gate — or until the fault injector wakes it
at the end of a straggler window.

All state advances on simulated time only (``math.exp`` of sim-time
deltas), so the monitor is exactly as deterministic as the kernel, and
the degraded/healthy state at any instant is a function of the signal
history alone — never of how often it is queried.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set


class HealthMonitor:
    """Exponentially-decayed per-rank fault scores with hysteresis."""

    def __init__(
        self,
        kernel,
        stats,
        tau: float = 0.25,
        hi: float = 3.0,
        lo: float = 0.5,
    ) -> None:
        self.kernel = kernel
        self.stats = stats
        self.tau = tau
        self.hi = hi
        self.lo = lo
        self._value: Dict[int, float] = {}
        self._last: Dict[int, float] = {}
        self._hot: Set[int] = set()
        #: Ranks inside a forced-degraded window (straggler injection),
        #: reference counted so overlapping windows compose.
        self._forced: Dict[int, int] = {}

    # -- signal inputs -------------------------------------------------------
    #
    # Signals are the only healthy-to-degraded transitions, so windows are
    # counted here: one per flip, whatever the query cadence.

    def record_fault(self, now: float, rank: int, weight: float = 1.0) -> None:
        """A fault event (timeout, crash) attributed to ``rank``."""
        was = self._state(now)
        v = self._decayed(rank, now) + weight
        self._value[rank] = v
        self._last[rank] = now
        if v >= self.hi:
            self._hot.add(rank)
        self._count_window(was)

    def force(self, rank: int, active: bool) -> None:
        """Enter/leave a forced-degraded window for ``rank``."""
        was = self._state(self.kernel.now)
        count = self._forced.get(rank, 0) + (1 if active else -1)
        if count > 0:
            self._forced[rank] = count
        else:
            self._forced.pop(rank, None)
        self._count_window(was)

    # -- queries -------------------------------------------------------------

    def degraded(self, now: float) -> bool:
        """True while any rank is unhealthy at ``now``."""
        return self._state(now)

    def recovery_time(self, now: float) -> Optional[float]:
        """Instant the gate reopens absent new signals, or None.

        None when healthy at ``now``, or while a forced straggler window
        holds a rank degraded (the window's end is its own wake-up).
        Otherwise the latest per-rank ``last + tau·ln(v/lo)`` over the hot
        ranks, nudged forward until :meth:`degraded` is False there — so
        rounding can never leave a score a hair above ``lo`` — and always
        strictly after ``now``.
        """
        if self._forced or not self._state(now):
            return None
        t = now
        for rank in self._hot:
            t = max(t, self._last[rank] + self.tau * math.log(self._value[rank] / self.lo))
        step = 0.0
        while t <= now or any(self._decayed(r, t) > self.lo for r in self._hot):
            step = max(2.0 * step, math.ulp(t))
            t += step
        return t

    # -- internals -----------------------------------------------------------

    def _state(self, now: float) -> bool:
        """Degraded at ``now``; hot ranks decayed to ``lo`` leave the set.

        Signals and :meth:`recovery_time` read the state through here, so
        calls to :meth:`degraded` count only the head's per-round checks.
        """
        if self._forced:
            return True
        hot = self._hot
        if hot:
            for rank in [r for r in hot if self._decayed(r, now) <= self.lo]:
                hot.discard(rank)
        return bool(hot)

    def _count_window(self, was: bool) -> None:
        if not was and (self._forced or self._hot):
            self.stats.degraded_windows += 1

    def _decayed(self, rank: int, now: float) -> float:
        v = self._value.get(rank, 0.0)
        if v == 0.0:
            return 0.0
        return v * math.exp(-(now - self._last[rank]) / self.tau)
