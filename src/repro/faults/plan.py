"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a frozen description of every fault a simulation
will experience — link-level loss/jitter/outage windows, stage straggler
windows, and worker crash/restart events — plus the recovery tuning (the
retransmission timeout and backoff cap, and the health monitor's EWMA
parameters).  Plans are pure data: all randomness they imply is drawn
deterministically from ``plan.seed`` through :mod:`repro.util.rng` at
injection time, never from wall-clock state, so a faulty run replays
byte-identically (the determinism contract of ``docs/engine-internals.md``
extends to faults — see ``docs/fault-tolerance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

_INF = float("inf")


@dataclass(frozen=True)
class LinkFault:
    """Fault behaviour on one directed link, active inside a time window.

    Several entries may target the same ``(src, dst)`` pair; their windows
    compose (loss draws are evaluated per entry, jitters add).

    Attributes:
        src, dst: the directed link the fault applies to.
        loss_rate: probability each transmission on the link is dropped.
        jitter: maximum extra latency (seconds) added per message, drawn
            uniformly from ``[0, jitter)``.
        outage: while active, drop *every* bulk-lane message (the cable is
            saturated/black-holed); eager-lane control messages still pass
            unless ``outage_all_lanes`` is set.
        outage_all_lanes: extend an outage to the eager lane too.
        start, end: active window in simulated seconds (``end`` exclusive).
    """

    src: int
    dst: int
    loss_rate: float = 0.0
    jitter: float = 0.0
    outage: bool = False
    outage_all_lanes: bool = False
    start: float = 0.0
    end: float = _INF

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("loopback links cannot fault")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")
        if self.end <= self.start:
            raise ValueError(f"empty fault window [{self.start}, {self.end})")


@dataclass(frozen=True)
class StragglerSpec:
    """One stage computing slower by ``factor`` inside a time window."""

    rank: int
    factor: float
    start: float = 0.0
    end: float = _INF

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"straggler factor must be >= 1, got {self.factor}")
        if self.end <= self.start:
            raise ValueError(f"empty straggler window [{self.start}, {self.end})")


@dataclass(frozen=True)
class CrashSpec:
    """One worker process dying at ``at`` and restarting after a delay.

    The crash loses the worker's in-memory KV shard and every message
    queued at its endpoint; the restarted process comes back empty and the
    serving head re-prefills each live request's verified tokens.
    """

    rank: int
    at: float
    restart_delay: float = 0.05

    def __post_init__(self) -> None:
        if self.at < 0.0:
            raise ValueError(f"crash time must be non-negative, got {self.at}")
        if self.restart_delay <= 0.0:
            raise ValueError(
                f"restart_delay must be positive, got {self.restart_delay}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one simulation, plus recovery tuning.

    Attributes:
        seed: root of every deterministic fault draw (loss, jitter).
        link_faults / stragglers / crashes: the scheduled faults.
        rto: initial retransmission timeout (seconds); doubles per retry.
        max_retries: retransmissions per message before the simulation is
            declared unrecoverable (raises ``SimError``).
        health_tau: exponential-decay time constant (seconds) of the
            per-stage fault EWMA.
        health_hi: EWMA value at which a stage is declared degraded
            (speculation depth gates to 0).
        health_lo: EWMA value below which a degraded stage is healthy
            again — the hysteresis gap forms the "stable window".
    """

    seed: int = 0
    link_faults: Tuple[LinkFault, ...] = field(default=())
    stragglers: Tuple[StragglerSpec, ...] = field(default=())
    crashes: Tuple[CrashSpec, ...] = field(default=())
    rto: float = 0.02
    max_retries: int = 12
    health_tau: float = 0.25
    health_hi: float = 3.0
    health_lo: float = 0.5

    def __post_init__(self) -> None:
        if self.rto <= 0.0:
            raise ValueError(f"rto must be positive, got {self.rto}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be positive, got {self.max_retries}")
        if self.health_tau <= 0.0:
            raise ValueError(f"health_tau must be positive, got {self.health_tau}")
        if not 0.0 < self.health_lo < self.health_hi:
            raise ValueError(
                f"need 0 < health_lo < health_hi, got "
                f"{self.health_lo} / {self.health_hi}"
            )

    def is_empty(self) -> bool:
        """True when the plan schedules no faults at all."""
        return not (self.link_faults or self.stragglers or self.crashes)

    def needs_reliable(self) -> bool:
        """True when messages can be lost and acks/retransmits are needed."""
        return bool(self.link_faults or self.crashes)

    def validate_for(self, n_ranks: int, head_rank: int | None = None) -> None:
        """Check every fault target exists in an ``n_ranks`` simulation.

        The head-crash check runs only when ``head_rank`` is known (the
        injector re-validates once the engine is attached).
        """
        for f in self.link_faults:
            for r in (f.src, f.dst):
                if not 0 <= r < n_ranks:
                    raise ValueError(f"link fault rank {r} outside 0..{n_ranks - 1}")
        for s in self.stragglers:
            if not 0 <= s.rank < n_ranks:
                raise ValueError(f"straggler rank {s.rank} outside 0..{n_ranks - 1}")
        for c in self.crashes:
            if not 0 <= c.rank < n_ranks:
                raise ValueError(f"crash rank {c.rank} outside 0..{n_ranks - 1}")
            if head_rank is not None and c.rank == head_rank:
                raise ValueError(
                    f"rank {c.rank} is the head; only pipeline workers may crash"
                )
