"""Reactive confidence-cutoff control (paper Section IV-B2).

Continuous speculation drafts further and further ahead of verification;
the deeper the unverified chain, the likelier that everything beyond some
point is wasted.  PipeInfer counteracts with two factors:

- the **recovery factor** is added to the cutoff on every successful
  continuous-speculation iteration, building an increasing gradient of
  required confidence, and is reset when a completed run is accepted;
- the **decay factor** is subtracted once per failed draft round (the
  draft's confidence fell below the cutoff) — the head has nothing better
  to do, so it lowers its standards to keep the pipeline fed.

Together they make speculation depth adapt to real-time system conditions
(slow interconnects raise effective depth costs; the controller backs
off).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CutoffController:
    """Adaptive confidence threshold for continuous speculation.

    The head calls :meth:`on_dispatched` per speculative dispatch,
    :meth:`on_accepted` per accepted run and :meth:`on_failed_idle` per
    draft round the cutoff halted before its first proposal.

    Attributes:
        base: the configured starting cutoff.
        recovery: added per successful speculation dispatch.
        decay: subtracted per failed draft round.
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
        """A draft round halted below the cutoff before its first proposal."""
        self.current = self._clamp(self.current - self.decay)

    def on_accepted(self) -> None:
        """A completed run was accepted: reset the gradient."""
        self.current = self._clamp(self.base)
