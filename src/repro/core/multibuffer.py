"""Pipelined KV-cache multibuffering (paper Section IV-C).

Every simultaneous run works in a private *sequence partition* of the KV
cache, allocated from a FIFO pool; the canonical sequence holds the
accepted truth.  Partitions behave like back buffers: a speculative run
writes its drafted tokens' cells into its own sequence, and on acceptance
the cells are "swapped" into the canonical sequence by a metadata copy.

Cache commands are *pipelined as transactions* (IV-C3): a run's dispatch
is preceded by copy commands that materialize its context — the accepted
prefix from the canonical sequence plus the still-unverified chain prefix
from the most recent speculative partition — at each node immediately
after that node finishes the predecessor runs.  This is what lets a run
skip recomputing tokens shared with previous runs *before those runs have
completed*.

The head partitions one shared :class:`SequencePool` across requests
(a single job is the one-request case): each admitted request allocates
a pool sequence as its
*canonical* partition for its lifetime (see :func:`acquire_canonical`),
and its speculative runs draw further partitions from the same pool.  On
request completion every partition it held returns to the pool, making
room for queued requests — per-request release.

This module owns the bookkeeping and emits the operations; the head node
sends them down the pipeline and the workers apply them in transaction
order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.comm.payloads import SEQ_END, CacheOp, CacheOpKind
from repro.core.run_state import RunRecord
from repro.util.fifo import SequencePool

#: Sentinel for "no partition holds unverified chain cells".  Pool ids
#: start at 1, so 0 never names a speculative partition.
NO_CHAIN = 0


class MultibufferManager:
    """Sequence-partition allocation and cache-op construction.

    Args:
        pool: the shared :class:`SequencePool` — several managers, one per
            request, draw from it concurrently.
        canonical_seq: the sequence id holding this request's accepted
            truth: a pool-allocated id on the head (see
            :func:`acquire_canonical`).
    """

    def __init__(self, pool: SequencePool, canonical_seq: int = 0) -> None:
        self.pool = pool
        self.canonical = canonical_seq
        #: Partition holding the newest unverified chain cells (NO_CHAIN =
        #: none: the chain is fully accepted / was just reset).
        self.chain_seq: int = NO_CHAIN

    # -- allocation ---------------------------------------------------------

    def can_allocate(self) -> bool:
        return self.pool.available()

    def allocate(self) -> int:
        return self.pool.allocate()

    # -- op builders ------------------------------------------------------------

    def ops_for_spec_dispatch(
        self, seq: int, accepted_len: int, start_pos: int
    ) -> List[CacheOp]:
        """Copy a new run's full context into its fresh partition.

        Ordering: these ops are sent *before* the run's decode transaction,
        so each node applies them after evaluating the predecessor runs
        (which wrote the copied cells) and before evaluating this run —
        the pipelined coherence of Section IV-C3.

        Source selection: positions below the accepted tip are guaranteed
        to sit in the canonical sequence (acceptance propagation copies a
        completed run's inputs there).  The tip's cell and the unverified
        chain prefix live in the newest speculative partition when one is
        in flight (``chain_seq``); otherwise the canonical run earlier in
        the pipeline writes the tip cell into the canonical sequence
        before these ops execute.
        """
        if self.chain_seq != NO_CHAIN:
            ops = [
                CacheOp(
                    CacheOpKind.SEQ_CP, self.canonical, seq,
                    0, max(accepted_len - 1, 0),
                )
            ]
            ops.append(
                CacheOp(
                    CacheOpKind.SEQ_CP, self.chain_seq, seq,
                    max(accepted_len - 1, 0), start_pos,
                )
            )
            return ops
        if start_pos > accepted_len:
            raise RuntimeError(
                "unverified chain prefix exists but no partition holds it"
            )
        return [CacheOp(CacheOpKind.SEQ_CP, self.canonical, seq, 0, accepted_len)]

    def ops_for_acceptance(
        self, rec: RunRecord, accepted_len_after: int
    ) -> List[CacheOp]:
        """Swap a completed run's accepted cells into the canonical sequence.

        Only entries up to the final accepted input position are copied
        (IV-C2).  The *newest* accepted token (position
        ``accepted_len_after - 1``) is excluded: on full acceptance it is
        the bonus token, which was sampled rather than evaluated and has
        no cell; on divergence it is the correction, and the run's cell at
        that position holds the *rejected* draft token — copying it would
        poison the canonical sequence.
        """
        if rec.seq_id == self.canonical:
            return []  # canonical runs already write into the canonical seq
        hi = min(rec.end_pos + 1, accepted_len_after - 1)
        if hi <= rec.start_pos:
            return []
        return [CacheOp(CacheOpKind.SEQ_CP, rec.seq_id, self.canonical, rec.start_pos, hi)]

    def ops_for_release(self, rec: RunRecord) -> List[CacheOp]:
        """Drop a completed run's partition (back-buffer free).

        Accepted cells survive: they were copied into the canonical
        sequence (and into successor partitions at their dispatch);
        removing this sequence id only frees cells no other sequence
        references — the rejected suffix.  A tree run drops every branch
        partition; its accepted path was copied to the canonical sequence.
        """
        if rec.branch_seqs:
            return [CacheOp(CacheOpKind.SEQ_RM, b, b, 0, SEQ_END) for b in rec.branch_seqs]
        if rec.seq_id == self.canonical:
            return []
        return [CacheOp(CacheOpKind.SEQ_RM, rec.seq_id, rec.seq_id, 0, SEQ_END)]

    def ops_for_request_release(self) -> List[CacheOp]:
        """Drop the canonical partition itself (request completion).

        Serving mode only: frees every cell the finished request's
        canonical sequence still references so queued requests find room.
        """
        return [CacheOp(CacheOpKind.SEQ_RM, self.canonical, self.canonical, 0, SEQ_END)]

    # -- lifecycle ------------------------------------------------------------------

    def on_run_complete(self, rec: RunRecord) -> None:
        """Release the partition(s) and fix the chain pointer."""
        for b in rec.branch_seqs:
            self.pool.release(b)
        if rec.seq_id != self.canonical:
            self.pool.release(rec.seq_id)
            if self.chain_seq == rec.seq_id:
                # The newest chain cells just left flight; anything beyond
                # the accepted stream was reconciled by the head.
                self.chain_seq = NO_CHAIN

    def on_chain_reset(self) -> None:
        """The drafted chain diverged; context now lives in the canonical seq only."""
        self.chain_seq = NO_CHAIN

    def on_spec_dispatch(self, seq: int) -> None:
        self.chain_seq = seq

    def release_canonical(self) -> None:
        """Return the canonical partition to the shared pool (serving mode)."""
        if self.canonical != 0:
            self.pool.release(self.canonical)


class CellBudget:
    """O(1) worst-case KV-cell accounting for serving admission.

    The serving head throttles admission against the workers' bounded
    cell capacity (functional caches cannot evict mid-flight).  The
    committed total is maintained incrementally on admit/release instead
    of being re-summed over every active request — and never by scanning
    cache cells — so the admission check in the serving hot loop is O(1)
    regardless of concurrency or cache size.

    A request too large to ever fit is still admitted when it would run
    alone — the same overflow a single-job run of it would hit, surfaced
    rather than deadlocked.
    """

    def __init__(self, capacity: Optional[int]) -> None:
        #: Worker shard cell capacity; None = unbounded (performance mode).
        self.capacity = capacity
        #: Sum of admitted requests' worst-case demands.
        self.committed = 0
        #: Cells held by the prefix cache's retained sequences (resident on
        #: every shard but owned by no active request, so the committed
        #: total cannot see them).  The serving head keeps this in sync
        #: with :attr:`repro.cache.prefix.PrefixCacheManager.retained_cells`
        #: and *evicts before admitting* when the sum would not fit —
        #: retained prefixes are reclaimable capacity, never a hard claim.
        self.retained = 0
        self._demands: Dict[int, int] = {}

    def fits(self, demand: int) -> bool:
        """Would admitting a request of ``demand`` cells stay in capacity?

        Retained prefix-cache cells count as occupancy: they are real
        resident cells the committed total does not cover.  The
        lone-request escape hatch (admit an oversized request that would
        run alone) additionally requires the cache to be empty — the
        head drains it first, so an oversized request still runs exactly
        like its single-job overflow case rather than colliding with
        leftover cached cells.
        """
        if self.capacity is None:
            return True
        if self.committed + self.retained + demand <= self.capacity:
            return True
        return not self._demands and self.retained == 0

    def admit(self, req_id: int, demand: int) -> None:
        if req_id in self._demands:
            raise ValueError(f"request {req_id} admitted twice")
        self._demands[req_id] = demand
        self.committed += demand

    def release(self, req_id: int) -> None:
        self.committed -= self._demands.pop(req_id, 0)


def acquire_canonical(pool: SequencePool) -> "MultibufferManager":
    """Allocate a canonical partition from ``pool`` for a new request.

    The returned manager shares ``pool`` for its speculative partitions;
    call :meth:`MultibufferManager.release_canonical` when the request
    completes.
    """
    return MultibufferManager(pool=pool, canonical_seq=pool.allocate())
