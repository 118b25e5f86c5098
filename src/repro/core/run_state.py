"""In-flight run tracking (paper Sections IV-A1 and IV-D1).

Each pipeline run is tracked in a :class:`RunRecord` holding its tokens
and position range, placed in a FIFO when dispatched and popped when its
logits arrive — MPI non-overtaking guarantees completion order matches
dispatch order, so the FIFO head always identifies the arriving run.

Invalidation detection implements the paper's two methods:

- a run whose maximum end position is behind the accepted tip is
  **superfluous** (all its predictions are already known);
- a run whose tokens disagree with the accepted stream at any position —
  or whose *context* builds on a drafted prefix that diverged — is
  **invalidated** (its logits are conditioned on rejected tokens).

The paper detects the second case by comparing each run's token sequence
against the accepted tokens after every sampling phase.  Because runs
partition the drafted chain contiguously, a divergence at position *d*
invalidates exactly the runs starting after *d*; :meth:`RunFIFO.invalidate_after`
uses that equivalent rule (and additionally catches context divergence
before the tip reaches the run, which pure token comparison would observe
only later).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple


class RunKind(enum.Enum):
    """Run flavours: prompt prefill, the canonical single-token run, and
    speculation."""

    PREFILL = "prefill"
    CANONICAL = "canonical"
    SPECULATIVE = "speculative"


@dataclass
class RunRecord:
    """Tracking data for one in-flight pipeline run.

    Attributes:
        run_id: unique identifier (matches cancel signals and logits).
        kind: canonical or speculative.
        tokens: the run's input tokens.
        start_pos: absolute position of ``tokens[0]``.
        seq_id: the KV sequence partition (0 for canonical runs).
        cancelled: set when invalidated; the run's logits are discarded.
        superfluous: set when all its predictions are already known; the
            run still evaluates fully (canonical) but sampling is skipped.
        tree: the :class:`~repro.spec.tree.SpecTree` a tree run verifies
            (the Speculative baseline); None for chain runs.  A tree run's
            ``tokens`` are the tip token followed by the tree's nodes.
        branch_seqs: the pool partitions holding a tree run's branches,
            one per leaf; released with the run.
    """

    run_id: int
    kind: RunKind
    tokens: List[int]
    start_pos: int
    seq_id: int
    cancelled: bool = False
    superfluous: bool = False
    tree: Any = None
    branch_seqs: Tuple[int, ...] = ()

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def end_pos(self) -> int:
        """Position of the run's last input token."""
        return self.start_pos + len(self.tokens) - 1

    def covers(self, pos: int) -> bool:
        return self.start_pos <= pos <= self.end_pos

    def token_at(self, pos: int) -> int:
        if not self.covers(pos):
            raise IndexError(f"run does not cover position {pos}")
        return self.tokens[pos - self.start_pos]

    @property
    def is_speculative(self) -> bool:
        return self.kind is RunKind.SPECULATIVE


class RunFIFO:
    """FIFO of in-flight runs with invalidation scans."""

    def __init__(self) -> None:
        self._q: Deque[RunRecord] = deque()

    def push(self, rec: RunRecord) -> None:
        self._q.append(rec)

    def pop(self) -> RunRecord:
        return self._q.popleft()

    def peek(self) -> RunRecord:
        return self._q[0]

    def __len__(self) -> int:
        return len(self._q)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._q)

    def live(self) -> List[RunRecord]:
        """Runs neither cancelled nor superfluous."""
        return [r for r in self._q if not r.cancelled and not r.superfluous]

    def covers_tip(self, accepted: Sequence[int]) -> bool:
        """Is some live run going to predict the token after the tip?

        True when a live run's input range includes the tip position with
        the accepted token — its logits at the tip will extend the stream.
        """
        tip = len(accepted) - 1
        for rec in self.live():
            if rec.covers(tip) and rec.token_at(tip) == accepted[tip]:
                return True
        return False

    def invalidate_after(self, divergence_pos: int) -> List[RunRecord]:
        """Mark speculative runs built on a diverged chain as invalid.

        Args:
            divergence_pos: first position where the accepted stream
                disagrees with the previously drafted chain.  Every token
                the chain held at or beyond this position is dead, so any
                speculative run starting at or after it — its first input
                is a dead token, or its context contains one — is invalid.
                (In-flight runs always start at or beyond the divergence:
                the run whose verification *revealed* the divergence has
                already been popped, and chained runs partition positions
                contiguously after it.)

        Returns:
            The newly invalidated records (for cancel-signal emission).
        """
        hit = []
        for rec in self._q:
            if rec.cancelled or not rec.is_speculative:
                continue
            if rec.start_pos >= divergence_pos:
                rec.cancelled = True
                hit.append(rec)
        return hit

    def mark_superfluous(self, accepted: Sequence[int]) -> List[RunRecord]:
        """Mark runs entirely behind the accepted tip (paper IV-D1).

        Only canonical runs can reach this state under chained speculation
        (speculative runs cover positions past the tip by construction),
        but the scan checks every record, matching the paper's method.
        """
        tip = len(accepted) - 1
        hit = []
        for rec in self._q:
            if rec.cancelled or rec.superfluous:
                continue
            if rec.end_pos < tip:
                rec.superfluous = True
                hit.append(rec)
        return hit

    def mark_all_cancelled(self) -> List[RunRecord]:
        """Cancel every in-flight speculative run (request completion).

        Canonical and prefill runs are left alone — workers never skip
        them — but their sampling is suppressed by the request's ``done``
        flag.  Returns the newly cancelled speculative records so the head
        can emit cancel signals.
        """
        hit = []
        for rec in self._q:
            if rec.is_speculative and not rec.cancelled:
                rec.cancelled = True
                hit.append(rec)
        return hit


@dataclass
class RequestContext:
    """All head-side state for one generation request.

    The serving head multiplexes many requests through one pipeline, so
    each request's state lives in a context object; a single job is the
    one-context case.

    Attributes:
        req_id: scheduler-assigned request identifier (0 for a single job).
        job: the :class:`~repro.engines.base.GenerationJob` being served.
        accepted: the verified token stream (prompt + generated).
        chain: the drafted working chain
            (:class:`~repro.engines.backend.ChainState`).
        fifo: this request's in-flight runs, dispatch order.
        kv: the request's :class:`~repro.core.multibuffer.MultibufferManager`
            view (its canonical partition plus pool access).
        cutoff: the request's reactive
            :class:`~repro.core.continuous.CutoffController`.
        metrics: the request's own collector.
        drafted: position -> drafted token, for acceptance-rate accounting.
            A drafted token is "checked" when verification fixes its
            position's true token; tokens drafted beyond a divergence are
            discarded unchecked.
        n_spec_inflight: live speculative runs (Figure 8's non-continuous
            ablation allows at most one).
        arrival: simulated arrival timestamp (0 for a single job).
        admitted_at: when the scheduler admitted the request.
        finished_at: when the final token was accepted and in-flight runs
            drained.
        prefilled: the prompt's prefill logits have been sampled; drafting
            and canonical dispatch are gated on this.
        done: the token budget is met; remaining in-flight runs drain
            without sampling.
        cached_tokens: prompt tokens materialized from the cross-request
            prefix cache at admission (0 = cache miss or cache off); the
            request's prefill covered only the remaining tail.
        priority: admission priority (higher admits first among ready
            requests; 0 for untagged traffic).
        ttft_slo: deadline on the time to first token, or None (no SLO).
        itl_slo: per-token inter-token-latency SLO, or None (no SLO).
        cancelled: the client disconnected mid-flight; the request stops
            sampling and drains like a completed one, but its report is
            tagged and its output is whatever was verified by then.
        stream: optional :class:`repro.api.stream.TokenStream` sink the
            serving head pushes accepted tokens into at the sim instant
            verification accepts them.  None outside streaming mode —
            a pure observer, never consulted by the simulation.
    """

    req_id: int
    job: Any
    accepted: List[int]
    chain: Any
    fifo: RunFIFO
    kv: Any
    cutoff: Any
    metrics: Any
    drafted: Dict[int, int] = field(default_factory=dict)
    n_spec_inflight: int = 0
    arrival: float = 0.0
    admitted_at: Optional[float] = None
    finished_at: Optional[float] = None
    prefilled: bool = False
    done: bool = False
    cached_tokens: int = 0
    priority: int = 0
    ttft_slo: Optional[float] = None
    itl_slo: Optional[float] = None
    cancelled: bool = False
    stream: Any = None

    @property
    def n_prompt(self) -> int:
        return len(self.job.prompt)

    @property
    def n_generated(self) -> int:
        return len(self.accepted) - self.n_prompt

    def target_reached(self) -> bool:
        """The token budget is met (verification may overshoot; callers clip)."""
        return self.n_generated >= self.job.n_generate

    def output_tokens(self) -> List[int]:
        """Generated tokens clipped to the budget (identical to single-job)."""
        return list(self.accepted[self.n_prompt:][: self.job.n_generate])
