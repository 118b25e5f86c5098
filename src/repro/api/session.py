"""Incremental driving of a serving cluster: submit / step / cancel.

:class:`ServingSession` wraps an :class:`~repro.serve.cluster.EngineCluster`
— the one serving driver — and replaces "serve the whole workload, hand
back one report" with an *incremental* surface:

- :meth:`submit` routes one request now (or at a given future arrival)
  and returns its live :class:`~repro.api.stream.TokenStream`;
- :meth:`step` advances the co-simulation one timestamp batch — the
  smallest unit that can change observable state — and reports whether
  anything streamed;
- :meth:`advance_until` runs until a condition: an absolute sim time, a
  stream producing (or closing), or an arbitrary predicate;
- :meth:`cancel` propagates a client disconnect mid-flight (speculation
  invalidation, canonical KV release, verified-prefix donation);
- :meth:`drain` / :meth:`report` finish the session into the usual
  :class:`~repro.metrics.report.ClusterReport`.

Streams are pure observers over the serving head, so a session that
submits a whole workload and drains without cancelling reproduces the
batch path's outputs token for token.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.api.stream import StreamHub, TokenStream
from repro.engines.base import GenerationJob
from repro.serve.cluster import EngineCluster
from repro.serve.scheduler import Request


class ServingSession:
    """One live serving run driven request by request.

    Args:
        cluster: a fresh (not yet opened) :class:`EngineCluster`.
        max_active: per-replica concurrency cap.
    """

    def __init__(
        self, cluster: EngineCluster, max_active: Optional[int] = None
    ) -> None:
        self.cluster = cluster
        self.hub = StreamHub()
        self._next_req_id = 0
        #: Monotonic submission clock: arrivals may never go backwards
        #: (the co-simulation has already advanced past them).
        self._clock = 0.0
        self._drained = False
        self._replicas = cluster.open(max_active=max_active)
        for rep in self._replicas:
            rep.engine.stream_hub = self.hub

    # -- client surface ------------------------------------------------------

    def submit(
        self,
        job: GenerationJob,
        arrival: Optional[float] = None,
        priority: int = 0,
        ttft_slo: Optional[float] = None,
        itl_slo: Optional[float] = None,
        session: Optional[int] = None,
    ) -> TokenStream:
        """Route one request into the cluster; returns its token stream.

        ``arrival`` defaults to the session clock (submit *now*); an
        earlier value is clamped to it — simulated time already passed.
        """
        if self._drained:
            raise RuntimeError("session already drained")
        t = self._clock if arrival is None else max(arrival, self._clock)
        self._clock = t
        req = Request(
            req_id=self._next_req_id,
            job=job,
            arrival=t,
            session=session,
            priority=priority,
            ttft_slo=ttft_slo,
            itl_slo=itl_slo,
        )
        self._next_req_id += 1
        stream = self.hub.open(req.req_id, budget=job.n_generate)
        self.cluster.submit(req)
        return stream

    def cancel(self, stream: Union[TokenStream, int]) -> None:
        """Client disconnect: cancel a request mid-flight.

        Broadcast to every replica (migration may have moved the request
        since routing; unknown ids are ignored), processed by the owning
        head at its next step.  No-op for already-closed streams.
        """
        rid = stream.req_id if isinstance(stream, TokenStream) else stream
        ts = self.hub.get(rid)
        if ts is not None and ts.closed:
            return
        for rep in self._replicas:
            rep.engine.cancel_request(rid)

    # -- time control --------------------------------------------------------

    def now(self) -> float:
        """The session clock (latest point every replica has reached)."""
        return self._clock

    def _next_event_time(self) -> Optional[float]:
        times = [
            t
            for rep in self._replicas
            if (t := rep.kernel.next_event_time()) is not None
        ]
        return min(times) if times else None

    def step(self) -> bool:
        """Advance to the next event timestamp across all replicas.

        Runs every replica up to the earliest pending event time (so the
        co-simulation stays in lockstep), then returns True if any stream
        saw an event (tokens or closure) during the step.  Returns False
        with no time advance when every kernel is drained.
        """
        if self._drained:
            return False
        nxt = self._next_event_time()
        if nxt is None:
            return False
        version = self.hub.version
        t = max(nxt, self._clock)
        self.cluster.advance_to(t)
        self._clock = t
        return self.hub.version != version

    def advance_until(
        self,
        event: Union[float, TokenStream, Callable[[], bool]],
        max_steps: int = 1_000_000,
    ) -> bool:
        """Step the simulation until ``event`` occurs.

        ``event`` may be an absolute sim time (advance to it), a
        :class:`TokenStream` (until it yields new tokens or closes), or
        a zero-argument predicate (until it returns True).  Returns True
        if the condition was met, False if the simulation drained (or
        ``max_steps`` elapsed) first.
        """
        if isinstance(event, float) or isinstance(event, int):
            target = float(event)
            while True:
                nxt = self._next_event_time()
                if nxt is None or nxt > target:
                    # Nothing left to execute before the target instant;
                    # settle every clock at it.
                    self.cluster.advance_to(target)
                    self._clock = max(self._clock, target)
                    return True
                if not self.step() and self._next_event_time() is None:
                    return False
        if isinstance(event, TokenStream):
            baseline = event.n_tokens

            def cond(stream: TokenStream = event, base: int = baseline) -> bool:
                return stream.n_tokens > base or stream.closed

        else:
            cond = event
        for _ in range(max_steps):
            if cond():
                return True
            nxt = self._next_event_time()
            if nxt is None:
                return cond()
            self.step()
        return cond()

    # -- completion ----------------------------------------------------------

    def drain(self) -> None:
        """Close the request stream and run everything to completion."""
        if self._drained:
            return
        self.cluster.close_and_drain()
        self._drained = True
        # Kernels share one absolute timeline; after a full drain the
        # session clock is the cluster-wide completion instant.
        self._clock = max(
            (rep.kernel.now for rep in self._replicas), default=self._clock
        )

    def report(self):
        """Drain (if needed) and aggregate the final ClusterReport."""
        self.drain()
        return self.cluster.report()

    def outputs(self) -> Dict[int, List[int]]:
        """Streamed tokens per request id so far."""
        return self.hub.outputs()
