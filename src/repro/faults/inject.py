"""Fault injection: faulty links and the injector orchestrating a plan.

:class:`FaultyLink` replaces :class:`~repro.cluster.interconnect.Link` on
pairs a plan targets and adds only faults: it runs Link's departure (lane
choice, lane statistics, bulk-lane advance) and Link's coalesced delivery,
and between the two draws (deterministically, from the plan seed and a
per-link transmission counter) whether an outage window swallows the
message, whether it is lost, and how much jitter it suffers.  A dropped
bulk message still occupies the wire — loss happens past the sender's
serializer — but its delivery callback never fires.

:class:`FaultInjector` wires a :class:`~repro.faults.plan.FaultPlan` into a
fresh simulation: the link factory, the ack/retransmit reliability layer
(:mod:`repro.comm.reliable`), the per-stage :class:`HealthMonitor`,
straggler slowdown windows, and worker crash/restart events.  Fault-free
runs never construct an injector, and every hot-path hook is a single
``is None``/falsy check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.interconnect import Link, LinkSpec
from repro.cluster.kernel import SimKernel
from repro.comm.reliable import ReliableTransport
from repro.faults.health import HealthMonitor
from repro.faults.plan import CrashSpec, FaultPlan, LinkFault, StragglerSpec
from repro.util.rng import hash_tokens, unit_float

#: Domain separators for the deterministic fault draws.
_LOSS_SALT = 211
_JITTER_SALT = 223


class FaultyLink(Link):
    """A link whose transmissions may be dropped, jittered, or blacked out."""

    def __init__(
        self,
        kernel: SimKernel,
        spec: LinkSpec,
        faults: Tuple[LinkFault, ...],
        seed: int,
        src: int,
        dst: int,
    ) -> None:
        super().__init__(kernel, spec)
        self._faults = faults
        self._seed = seed
        self._src = src
        self._dst = dst
        #: Per-link transmission counter feeding the deterministic draws —
        #: retransmissions get fresh draws, identical replays get identical
        #: ones.
        self._n_tx = 0
        #: Messages swallowed by loss draws or outage windows.
        self.n_lost = 0

    def transmit(self, nbytes: float, on_delivered, eager_hint: bool = False) -> float:
        # Departure is Link's: a lost bulk message has already crossed the
        # sender's serializer, so it occupies the wire (advances the bulk
        # lane) even though it never arrives.
        now = self._kernel.now
        arrival, eager = self._depart(nbytes, eager_hint)
        self._n_tx += 1
        key = (self._src, self._dst, self._n_tx)
        extra = 0.0
        for f in self._faults:
            if not f.start <= now < f.end:
                continue
            if f.outage and (not eager or f.outage_all_lanes):
                self.n_lost += 1
                return arrival
            if f.loss_rate > 0.0 and (
                unit_float(hash_tokens(self._seed, key, salt=_LOSS_SALT))
                < f.loss_rate
            ):
                self.n_lost += 1
                return arrival
            if f.jitter > 0.0:
                extra += f.jitter * unit_float(
                    hash_tokens(self._seed, key, salt=_JITTER_SALT)
                )
        arrival += extra
        self._deliver(arrival, on_delivered)
        return arrival


class FaultInjector:
    """Wires one :class:`FaultPlan` into one simulation."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.kernel: Optional[SimKernel] = None
        self.net = None
        self.stats = None
        self.health: Optional[HealthMonitor] = None
        self.engine = None
        self._stragglers_by_rank: Dict[int, List[StragglerSpec]] = {}
        for s in plan.stragglers:
            self._stragglers_by_rank.setdefault(s.rank, []).append(s)

    # -- wiring --------------------------------------------------------------

    def install(self, kernel: SimKernel, network, metrics) -> None:
        """Attach to a freshly built network (before the engine spawns)."""
        plan = self.plan
        plan.validate_for(network.size)
        self.kernel = kernel
        self.net = network
        self.stats = metrics.stats
        self.health = HealthMonitor(
            kernel,
            metrics.stats,
            tau=plan.health_tau,
            hi=plan.health_hi,
            lo=plan.health_lo,
        )
        if plan.link_faults:
            by_pair: Dict[Tuple[int, int], List[LinkFault]] = {}
            for f in plan.link_faults:
                by_pair.setdefault((f.src, f.dst), []).append(f)

            def factory(k: SimKernel, spec: LinkSpec, src: int, dst: int) -> Link:
                faults = by_pair.get((src, dst))
                if faults:
                    return FaultyLink(k, spec, tuple(faults), plan.seed, src, dst)
                return Link(k, spec)

            network.cluster._link_factory = factory
        if plan.needs_reliable():
            network._reliable = ReliableTransport(
                kernel,
                network,
                rto=plan.rto,
                max_retries=plan.max_retries,
                stats=metrics.stats,
                health=self.health,
            )
        for s in plan.stragglers:
            kernel.call_at(s.start, lambda r=s.rank: self.health.force(r, True))
            if s.end != float("inf"):
                kernel.call_at(s.end, lambda r=s.rank: self._straggler_end(r))

    def attach_engine(self, engine, head_rank: Optional[int] = None) -> None:
        """Learn the engine (after spawn) and schedule crash events."""
        self.engine = engine
        engine.injector = self
        self.plan.validate_for(
            self.net.size,
            head_rank=engine.head_rank() if head_rank is None else head_rank,
        )
        for c in self.plan.crashes:
            self.kernel.call_at(c.at, lambda c=c: self._crash(c))

    # -- hooks queried by the engine layers ----------------------------------

    def stage_time_factor(self, rank: int) -> float:
        """Combined straggler multiplier active for ``rank`` right now."""
        specs = self._stragglers_by_rank.get(rank)
        if not specs:
            return 1.0
        now = self.kernel.now
        factor = 1.0
        for s in specs:
            if s.start <= now < s.end:
                factor *= s.factor
        return factor

    # -- crash / restart ------------------------------------------------------

    def _crash(self, spec: CrashSpec) -> None:
        engine = self.engine
        proc = engine._worker_procs.get(spec.rank)
        if proc is not None and proc.alive:
            proc.alive = False
            proc.gen.close()
        # The endpoint forgets everything queued or parked; its expected
        # sequence numbers jump to the sender counters so in-flight
        # pre-crash traffic arrives stale and is dropped + re-acked.
        self.net.endpoints[spec.rank].reset_after_crash()
        self.health.record_fault(self.kernel.now, spec.rank, weight=self.plan.health_hi)
        self.kernel.call_after(spec.restart_delay, lambda: self._restart(spec.rank))

    def _restart(self, rank: int) -> None:
        self.engine.respawn_worker(rank)
        self.stats.worker_restarts += 1
        # The crash lost every in-flight run, so no logits will come to
        # wake the serving head: post the event and wake it directly.  Its
        # next step runs KV recovery (flush in-flight runs, re-prefill
        # verified tokens).
        self.engine._fault_events.append(("worker_restart", rank))
        self.engine.ep()._notify_watchers()

    # -- straggler windows ----------------------------------------------------

    def _straggler_end(self, rank: int) -> None:
        # Leaving a forced window may reopen the health gate with no
        # message on its way to the head: wake it so speculation resumes.
        self.health.force(rank, False)
        if self.engine is not None:
            self.engine.ep()._notify_watchers()
