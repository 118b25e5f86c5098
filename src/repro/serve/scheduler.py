"""Request admission and queueing for multi-request serving.

A :class:`Workload` is a static description: jobs plus an arrival trace
(see :mod:`repro.workloads.arrivals`) and an optional concurrency cap.
The :class:`RequestScheduler` is the live FCFS admission queue the serving
head consults.  The cluster driver pushes requests into it one at a time
in arrival order; they become *ready* when simulated time passes their
arrival, are *admitted* when the head has a free KV partition (and the
cap allows), and are *completed* when their token budget is met and their
in-flight runs have drained.

Scheduling is deliberately deterministic — FCFS by (arrival, submission
index) — so served outputs are reproducible token-for-token against
single-job runs of the same prompts.

Requests may carry a ``priority`` and deadline tags (``ttft_slo``,
``itl_slo``).  Priorities reorder *admission only*: among the requests
that have arrived (the contiguous ready prefix of the queue), the highest
priority wins, ties broken by queue position — so untagged traffic
(all priority 0) admits in exactly the historical FCFS order.  SLO tags
never change scheduling here; they feed the goodput metric and the
cluster router's deadline-aware spill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.engines.base import GenerationJob


@dataclass(frozen=True)
class Request:
    """One queued generation request.

    ``session`` tags requests that belong to one multi-turn conversation
    (all of a session's turns share it); the cluster router uses it for
    session-affinity routing.  Single-shot traffic leaves it None.

    ``priority`` biases admission (higher first among arrived requests);
    ``ttft_slo`` / ``itl_slo`` are deadline tags — seconds to first token
    and seconds between tokens — consumed by the goodput metric and the
    cluster router's deadline-aware spill.  None means no SLO.
    """

    req_id: int
    job: GenerationJob
    arrival: float
    session: Optional[int] = None
    priority: int = 0
    ttft_slo: Optional[float] = None
    itl_slo: Optional[float] = None


def worst_case_cell_demand(job: GenerationJob, config) -> int:
    """Worst-case KV cells ``job`` occupies at its peak, from shapes alone.

    Accepted cells persist until the request releases its canonical
    partition; in-flight drafts add at most the lookahead plus one
    micro-batch (verification can overshoot by a batch).  Computed once
    per request at admission time — the admission check itself never
    scans cache cells (see :class:`repro.core.multibuffer.CellBudget`).
    """
    return (
        len(job.prompt)
        + job.n_generate
        + config.lookahead_cap
        + config.microbatch_size
    )


def post_match_cell_demand(job: GenerationJob, config, cached_tokens: int) -> int:
    """Worst-case *new* cells after a prefix-cache match of ``cached_tokens``.

    Materializing a cached prefix is a metadata copy — the matched
    positions' cells already exist under the cache's retained sequences
    and are merely shared into the request's canonical partition — so
    admission must charge only the unmatched tail plus generation and
    speculation headroom.  With the cache off (``cached_tokens == 0``)
    this is exactly :func:`worst_case_cell_demand`.
    """
    return worst_case_cell_demand(job, config) - cached_tokens


@dataclass(frozen=True)
class Workload:
    """A stream of jobs with an arrival trace.

    Attributes:
        jobs: the generation jobs, in submission order.
        arrivals: per-job arrival timestamps; an empty tuple means every
            request is queued at t=0 (closed loop).
        max_active: concurrency cap on simultaneously admitted requests
            (None = bounded only by KV partitions).
        sessions: optional per-job session tags aligned with ``jobs``
            (multi-turn traces tag every turn of one conversation with
            the same id; see
            :meth:`repro.workloads.prompts.MultiTurnTemplate.sessions`).
            Empty means untagged — single-shot traffic.
        priorities: optional per-job admission priorities aligned with
            ``jobs`` (empty = all zero).
        ttft_slos: optional per-job time-to-first-token deadlines aligned
            with ``jobs`` (empty = no SLO; None entries allowed).
        itl_slos: optional per-job inter-token-latency deadlines aligned
            with ``jobs`` (empty = no SLO; None entries allowed).
    """

    jobs: Tuple[GenerationJob, ...]
    arrivals: Tuple[float, ...] = ()
    max_active: Optional[int] = None
    sessions: Tuple[Optional[int], ...] = ()
    priorities: Tuple[int, ...] = ()
    ttft_slos: Tuple[Optional[float], ...] = ()
    itl_slos: Tuple[Optional[float], ...] = ()

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("workload must contain at least one job")
        if self.arrivals and len(self.arrivals) != len(self.jobs):
            raise ValueError(
                f"arrival trace length {len(self.arrivals)} does not match "
                f"{len(self.jobs)} jobs"
            )
        if any(t < 0 for t in self.arrivals):
            raise ValueError("arrival times must be non-negative")
        if self.max_active is not None and self.max_active < 1:
            raise ValueError(f"max_active must be positive, got {self.max_active}")
        for name in ("sessions", "priorities", "ttft_slos", "itl_slos"):
            tags = getattr(self, name)
            if tags and len(tags) != len(self.jobs):
                raise ValueError(
                    f"{name} length {len(tags)} does not match "
                    f"{len(self.jobs)} jobs"
                )
        for name in ("ttft_slos", "itl_slos"):
            if any(s is not None and s <= 0 for s in getattr(self, name)):
                raise ValueError(f"{name} entries must be positive or None")

    def requests(self) -> List[Request]:
        """The jobs as FCFS-ordered :class:`Request` records."""
        n = len(self.jobs)
        arrivals = self.arrivals or (0.0,) * n
        sessions = self.sessions or (None,) * n
        priorities = self.priorities or (0,) * n
        ttft_slos = self.ttft_slos or (None,) * n
        itl_slos = self.itl_slos or (None,) * n
        reqs = [
            Request(
                req_id=i,
                job=job,
                arrival=arrivals[i],
                session=sessions[i],
                priority=priorities[i],
                ttft_slo=ttft_slos[i],
                itl_slo=itl_slos[i],
            )
            for i, job in enumerate(self.jobs)
        ]
        return sorted(reqs, key=lambda r: (r.arrival, r.req_id))


class RequestScheduler:
    """Push-mode FCFS admission queue (priority-aware) of one serving head.

    The queue starts empty and receives requests one at a time
    (:meth:`push`) in global arrival order, as the cluster's router
    assigns them.  The stream stays *open* — the head parks instead of
    shutting the pipeline down when the queue drains — until the driver
    calls :meth:`close` after the last request has been routed.

    Admission readiness keeps the historical *contiguous prefix* rule:
    only requests up to the first not-yet-arrived queue entry are
    candidates (so a migrated request parked behind a later arrival waits
    its queue turn).  Among those candidates the highest ``priority``
    wins, ties broken by queue position — with all priorities zero this
    degenerates to popping the head: plain FCFS.

    The queue-depth accessors feed the router's load signals: ``depth``
    counts requests in the system (queued or active, not yet completed),
    ``n_waiting`` only those not yet admitted.  :meth:`steal_tail` lets
    the router migrate the most recently routed request away while it is
    still waiting — admitted requests hold KV state and never move.
    """

    def __init__(self, max_active: Optional[int] = None) -> None:
        self._queue: List[Request] = []
        self._pending: List[Request] = []
        self._max_active = max_active
        self.n_admitted = 0
        self.n_completed = 0
        self.n_cancelled = 0
        #: req_id -> completion timestamp.
        self.completed_at: Dict[int, float] = {}
        self.closed = False

    @property
    def depth(self) -> int:
        """Requests in the system: routed here, neither completed nor
        cancelled-while-queued."""
        return len(self._queue) - self.n_completed - self.n_cancelled

    @property
    def n_waiting(self) -> int:
        """Requests routed here but not yet admitted into the pipeline."""
        return len(self._pending)

    def has_pending(self) -> bool:
        """Requests not yet admitted (nor cancelled while queued) remain."""
        return bool(self._pending)

    def stream_open(self) -> bool:
        """Whether more requests may still be pushed (not yet closed)."""
        return not self.closed

    def all_done(self) -> bool:
        return self.n_completed + self.n_cancelled == len(self._queue)

    def peek_next(self) -> Optional[Request]:
        """The queue head (earliest position), or None when all admitted.

        This is the *arrival-order* head — the right probe for "when does
        the next request arrive" — not necessarily the admission winner;
        see :meth:`peek_ready` for that.
        """
        return self._pending[0] if self._pending else None

    def next_arrival(self) -> Optional[float]:
        """Arrival time of the next unadmitted request."""
        nxt = self.peek_next()
        return None if nxt is None else nxt.arrival

    def _ready_index(self, now: float) -> Optional[int]:
        """Index into the pending queue of the admission winner.

        Scans the contiguous arrived prefix; the winner is the highest
        priority, ties broken by queue position.
        """
        best: Optional[int] = None
        for i, req in enumerate(self._pending):
            if req.arrival > now:
                break
            if best is None or req.priority > self._pending[best].priority:
                best = i
        return best

    def ready(self, now: float) -> bool:
        """True when some request in the arrived prefix awaits admission."""
        return self._ready_index(now) is not None

    def peek_ready(self, now: float) -> Optional[Request]:
        """The request :meth:`pop_ready` would admit at ``now``, unpopped."""
        idx = self._ready_index(now)
        return None if idx is None else self._pending[idx]

    def may_admit(self, n_active: int) -> bool:
        """Does the concurrency cap allow another admission?"""
        cap = self._max_active
        return cap is None or n_active < cap

    def pop_ready(self, now: float) -> Optional[Request]:
        """Admit (dequeue) the winning arrived request, if any."""
        idx = self._ready_index(now)
        if idx is None:
            return None
        req = self._pending.pop(idx)
        self.n_admitted += 1
        return req

    def push(self, req: Request, migrated: bool = False) -> None:
        """Append one routed request; must arrive in global FCFS order.

        Migrated requests (stolen from another replica's tail) may carry
        an arrival earlier than this queue's tail — they simply wait
        their queue turn — so ``migrated=True`` skips the order guard.
        """
        if self.closed:
            raise ValueError("cannot push into a closed queue")
        if not migrated and self._queue and req.arrival < self._queue[-1].arrival:
            raise ValueError(
                f"push out of arrival order: {req.arrival} after "
                f"{self._queue[-1].arrival}"
            )
        self._queue.append(req)
        self._pending.append(req)

    def steal_tail(self) -> Optional[Request]:
        """Take back the most recently pushed, not-yet-admitted request."""
        if not self._pending or self._pending[-1] is not self._queue[-1]:
            return None
        req = self._pending.pop()
        self._queue.pop()
        return req

    def close(self) -> None:
        """No more requests will be pushed; the head may drain and exit."""
        self.closed = True

    def cancel_queued(self, req_id: int) -> Optional[Request]:
        """Remove a not-yet-admitted request (client disconnected).

        Returns the removed request, or None when ``req_id`` is not
        queued here (already admitted, completed, or routed elsewhere).
        """
        for i, req in enumerate(self._pending):
            if req.req_id == req_id:
                self._pending.pop(i)
                self.n_cancelled += 1
                return req
        return None

    def on_completed(self, req_id: int, t: float) -> None:
        if req_id in self.completed_at:
            raise ValueError(f"request {req_id} completed twice")
        self.completed_at[req_id] = t
        self.n_completed += 1
