"""Reactive confidence-cutoff control (paper Section IV-B2).

Continuous speculation drafts further and further ahead of verification;
the deeper the unverified chain, the likelier that everything beyond some
point is wasted.  PipeInfer counteracts with two factors:

- the **recovery factor** is added to the cutoff on every successful
  continuous-speculation iteration, building an increasing gradient of
  required confidence, and is reset when a completed run is accepted;
- the **decay factor** is subtracted when speculation fails (the draft's
  confidence fell below the cutoff) while no logits are waiting — the
  head has nothing better to do, so it lowers its standards to keep the
  pipeline fed.

Together they make speculation depth adapt to real-time system conditions
(slow interconnects raise effective depth costs; the controller backs
off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple


@dataclass
class CutoffController:
    """Adaptive confidence threshold for continuous speculation.

    The head calls :meth:`on_dispatched` per speculative dispatch,
    :meth:`on_accepted` per accepted run and :meth:`on_failed_idle` per
    failed draft attempt while idle.  Its chain tip is fixed while it
    idles, so the attempts are not run one by one:
    :meth:`failed_attempts_before` predicts the failures and
    :func:`retry_windows` their instants.

    Attributes:
        base: the configured starting cutoff.
        recovery: added per successful speculation dispatch.
        decay: subtracted per failed attempt while idle.
        floor: lower clamp — drafting never becomes unconditional.
        ceiling: upper clamp — speculation can always resume after reset.
    """

    base: float
    recovery: float
    decay: float
    floor: float = 0.02
    ceiling: float = 0.97

    def __post_init__(self) -> None:
        if not 0.0 <= self.base <= 1.0:
            raise ValueError("base cutoff must be within [0, 1]")
        if self.recovery < 0 or self.decay < 0:
            raise ValueError("factors must be non-negative")
        self.current = self._clamp(self.base)

    def _clamp(self, x: float) -> float:
        return min(max(x, self.floor), self.ceiling)

    def on_dispatched(self) -> None:
        """A speculative micro-batch was generated and dispatched."""
        self.current = self._clamp(self.current + self.recovery)

    def on_failed_idle(self) -> None:
        """Drafting halted below the cutoff and no logits were waiting."""
        self.current = self._clamp(self.current - self.decay)

    def on_accepted(self) -> None:
        """A completed run was accepted: reset the gradient."""
        self.current = self._clamp(self.base)

    def failed_attempts_before(self, conf: float) -> Optional[int]:
        """Failed attempts before a proposal of confidence ``conf`` clears.

        An attempt fails while ``conf < current`` and each failure calls
        :meth:`on_failed_idle`.  Returns how many failures that takes
        (0 when ``conf`` already clears), or None when the cutoff stops
        decaying above ``conf``: the floor clamp, or ``decay = 0``.  The
        controller is not changed.

        The count replays the clamped subtraction on a float copy rather
        than dividing ``current - conf`` by ``decay``: the subtraction
        rounds at every step, so a quotient can be one off at a rounding
        boundary, and the head's schedule must match the loop exactly.
        """
        cut = self.current
        k = 0
        while conf < cut:
            nxt = self._clamp(cut - self.decay)
            if nxt == cut:
                return None
            cut = nxt
            k += 1
        return k


def retry_windows(
    end: float, draft_time: float, idle_poll: float
) -> Iterator[Tuple[float, float]]:
    """``(start, end)`` of each draft retry after a failed attempt at ``end``.

    An idle head waits ``idle_poll`` after each failure, then drafts one
    pass of ``draft_time``.  The instants are built with the same float
    additions, in the same order, as the kernel timestamps of a head that
    polls (``now + idle_poll``, then ``now + draft_time``), so they are
    bit-equal to them.  Endless; the caller stops.
    """
    while True:
        start = end + idle_poll
        end = start + draft_time
        yield start, end
