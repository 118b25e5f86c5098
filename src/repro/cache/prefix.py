"""Cross-request KV prefix caching on the multibuffered sequence plane.

The paper's Section IV-C plane lets a run inherit context through
metadata copies pipelined as transactions instead of recomputing it.
PRs 1-4 exploited that *within* a request; this module extends it
*across* requests: when a request completes, its verified prompt KV is
*donated* into a :class:`~repro.cache.radix.RadixTree` (the cells stay
resident under a retained pool sequence) instead of being freed, and a
later request whose prompt shares a prefix *materializes* the cached
cells into its own canonical partition with the same O(1)
``seq_cp``/``seq_broadcast`` cache-op transactions the engines already
pipeline (IV-C3) — then prefills only the unmatched prompt tail.  Under
shared-system-prompt or multi-turn traffic this converts most prefill
compute into metadata copies, attacking TTFT directly.

Lifecycle per request (all head-side, all deterministic):

1. **match** — pure longest-prefix walk, capped so at least one prompt
   token always prefills (its logits sample the first output token) and
   floored by ``min_match_tokens``;
2. **acquire** — pin (ref-count) the matched path so eviction cannot
   take it while the request is active;
3. **materialize** — emit ``seq_cp`` ops (or one ``seq_broadcast`` when
   several same-sweep admissions match the same node) copying the
   matched cells into the request's canonical sequence;
4. **donate** — on completion, retain the prompt's uncached suffix as a
   new tree node: one ``seq_cp`` from the canonical sequence into a
   freshly allocated pool sequence, ordered *before* the canonical
   partition's release so the cells survive it.  A donation that
   diverges mid-edge first *splits* the node copy-on-write style
   (``seq_cp`` + ``seq_rm`` move the tail cells to a child sequence);
5. **evict** — LRU unpinned leaves are dropped (``seq_rm``, sequence
   back to the pool) whenever retained cells exceed the configured
   budget, the pool runs dry, or serving admission needs cell headroom —
   cached prefixes always yield to live traffic.

The manager only *builds* cache-ops; the serving head sends them, so
ordering against prefill/decode transactions is exactly the pipelined
transaction order of Section IV-C3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.cache.radix import RadixNode, RadixTree
from repro.comm.payloads import CacheOp, CacheOpKind
from repro.util.fifo import SequencePool


@dataclass
class PrefixMatch:
    """One prompt's longest cached prefix.

    ``entries`` are ``(node, lo, hi)`` absolute position ranges — the
    last may cover only part of its node's span (mid-edge match, or the
    always-prefill-one-token cap).  ``length`` is the total matched
    token count after caps.
    """

    entries: List[Tuple[RadixNode, int, int]] = field(default_factory=list)
    length: int = 0

    def __bool__(self) -> bool:
        return self.length > 0


class PrefixCacheManager:
    """Head-side radix prefix cache over a shared KV sequence pool.

    Args:
        pool: the serving head's shared :class:`SequencePool`; retained
            tree nodes hold pool sequences and return them on eviction.
        max_cells: retained-cell budget (``EngineConfig.prefix_cache_cells``).
            Donations beyond it evict LRU leaves first and are skipped
            when pinned entries leave no room.
        min_match_tokens: prefix matches (and donated spans) shorter than
            this are ignored — tiny copies are not worth a transaction.
    """

    def __init__(
        self,
        pool: SequencePool,
        max_cells: int,
        min_match_tokens: int,
    ) -> None:
        self.pool = pool
        self.max_cells = max_cells
        self.min_match_tokens = min_match_tokens
        self.tree = RadixTree()
        #: Cells currently held by retained tree sequences.
        self.retained_cells = 0
        #: req_id -> pinned match (refs released when the request ends).
        self._active: Dict[int, PrefixMatch] = {}
        self.stats = {
            "requests_hit": 0,
            "requests_missed": 0,
            "hit_tokens": 0,
            "donated_nodes": 0,
            "donated_tokens": 0,
            "splits": 0,
            "evictions": 0,
            "evicted_cells": 0,
        }

    # -- match / pin ---------------------------------------------------------

    def match(self, prompt: Sequence[int]) -> PrefixMatch:
        """Longest usable cached prefix of ``prompt`` (pure, no side effects).

        Capped at ``len(prompt) - 1``: the final prompt token must always
        prefill, because its logits sample the request's first output
        token.  Matches below ``min_match_tokens`` return empty.
        """
        path, m = self.tree.walk(prompt)
        m = min(m, len(prompt) - 1)
        if m < self.min_match_tokens:
            return PrefixMatch()
        entries: List[Tuple[RadixNode, int, int]] = []
        covered = 0
        for node, k in path:
            if covered >= m:
                break
            hi = min(node.start + k, m)
            entries.append((node, node.start, hi))
            covered = hi
        return PrefixMatch(entries, m)

    def acquire(self, req_id: int, match: PrefixMatch, now: float) -> None:
        """Pin the matched path (ref-count retain).

        Called *before* the admission cell check so that any eviction the
        admission itself triggers cannot reclaim the path it is about to
        materialize; :meth:`release` unpins (also when admission fails
        and the request retries later).  Stats are recorded separately by
        :meth:`note_admitted` — only requests that actually admit count.
        """
        if not match:
            return
        if req_id in self._active:
            raise ValueError(f"request {req_id} already holds a prefix match")
        for node, _, _ in match.entries:
            node.ref += 1
            node.last_used = now
        self._active[req_id] = match

    def note_admitted(self, match: PrefixMatch) -> None:
        """Record one admission's hit/miss outcome."""
        if match:
            self.stats["requests_hit"] += 1
            self.stats["hit_tokens"] += match.length
        else:
            self.stats["requests_missed"] += 1

    def release(self, req_id: int) -> None:
        """Drop a completed request's pins (idempotent for cache misses)."""
        match = self._active.pop(req_id, None)
        if match is None:
            return
        for node, _, _ in match.entries:
            node.ref -= 1

    # -- materialization -----------------------------------------------------

    def ops_for_materialize(
        self, pairs: Sequence[Tuple[PrefixMatch, int]]
    ) -> List[CacheOp]:
        """Cache-ops copying matched cells into each request's canonical seq.

        ``pairs`` is one admission sweep's ``(match, canonical_seq)``
        list.  Spans matched by several requests in the sweep collapse
        into a single multi-target ``seq_broadcast`` transaction — the
        shared-system-prompt fast path where a burst of admissions costs
        one op per cached node, not one per request.  Ops only reference
        already-resident cells, so any op order works; the emitted order
        is deterministic (first-seen span, then pool id).
        """
        grouped: Dict[Tuple[int, int, int], Tuple[RadixNode, int, int, List[int]]] = {}
        for match, canonical in pairs:
            for node, lo, hi in match.entries:
                key = (node.seq, lo, hi)
                if key not in grouped:
                    grouped[key] = (node, lo, hi, [])
                grouped[key][3].append(canonical)
        ops: List[CacheOp] = []
        for node, lo, hi, targets in grouped.values():
            if len(targets) == 1:
                ops.append(CacheOp(CacheOpKind.SEQ_CP, node.seq, targets[0], lo, hi))
            else:
                ops.append(
                    CacheOp(
                        CacheOpKind.SEQ_BROADCAST, node.seq, targets[0], lo, hi,
                        targets=tuple(targets),
                    )
                )
        return ops

    # -- donation ------------------------------------------------------------

    def ops_for_donate(
        self, prompt: Sequence[int], canonical_seq: int, now: float
    ) -> List[CacheOp]:
        """Retain a completed request's uncached prompt suffix in the tree.

        Walks the *current* tree (it may have grown or shrunk since this
        request matched), splits a mid-edge divergence copy-on-write
        style, and copies the new span's cells out of the canonical
        sequence into a fresh retained sequence.  Must be called before
        the canonical partition's release ops are sent — the returned
        ops are ordered to precede them in the same transaction batch.

        Yields to pressure rather than creating it: evicts LRU leaves to
        stay within ``max_cells`` and skips the donation entirely when
        pinned entries or pool exhaustion leave no room.
        """
        ops: List[CacheOp] = []
        path, m = self.tree.walk(prompt)
        for node, _ in path:
            node.last_used = now
        span = len(prompt) - m
        if span < self.min_match_tokens:
            return ops
        # The walk's own path is off-limits to the evictions this
        # donation triggers: the new node attaches under its last entry.
        protect = {node for node, _ in path}
        # Cell budget: evict LRU leaves until the new span fits.
        while self.retained_cells + span > self.max_cells:
            if not self._evict_one(ops, protect):
                return ops
        parent = self.tree.root
        if path:
            last, k = path[-1]
            if k < len(last.tokens):
                # Mid-edge divergence: copy-on-write split.  The tail's
                # cells move to a child sequence so the shared head span
                # can be referenced (and the tail evicted) independently.
                if not self._seq_available(ops, protect):
                    return ops
                child_seq = self.pool.allocate()
                split_pos = last.start + k
                ops.append(
                    CacheOp(CacheOpKind.SEQ_CP, last.seq, child_seq,
                            split_pos, last.end)
                )
                ops.append(
                    CacheOp(CacheOpKind.SEQ_RM, last.seq, last.seq,
                            split_pos, last.end)
                )
                child = self.tree.split(last, k, child_seq)
                self.stats["splits"] += 1
                self._repin_after_split(last, child, split_pos)
                protect.add(child)
                parent = last
            else:
                parent = last
        if not self._seq_available(ops, protect):
            return ops
        seq = self.pool.allocate()
        self.tree.insert_child(parent, prompt[m:], m, seq, now)
        ops.append(CacheOp(CacheOpKind.SEQ_CP, canonical_seq, seq, m, len(prompt)))
        self.retained_cells += span
        self.stats["donated_nodes"] += 1
        self.stats["donated_tokens"] += span
        return ops

    def _repin_after_split(
        self, parent: RadixNode, child: RadixNode, split_pos: int
    ) -> None:
        """Fix active pins that span a just-split node.

        A pinned entry covering positions past the split point now rests
        on two nodes; the child inherits exactly the pins that reach into
        its span, so release() keeps refs balanced and eviction keeps
        honoring in-use spans.
        """
        for match in self._active.values():
            for i, (node, lo, hi) in enumerate(match.entries):
                if node is parent and hi > split_pos:
                    match.entries[i] = (parent, lo, split_pos)
                    match.entries.insert(i + 1, (child, split_pos, hi))
                    child.ref += 1
                    break

    # -- eviction ------------------------------------------------------------

    def _seq_available(self, ops: List[CacheOp], protect=()) -> bool:
        """Ensure the pool can hand out one sequence, evicting if needed."""
        while not self.pool.available():
            if not self._evict_one(ops, protect):
                return False
        return True

    def _evict_one(self, ops: List[CacheOp], protect=()) -> int:
        """Evict the LRU unpinned leaf; returns the cells freed (0 = none).

        ``protect`` excludes nodes from eviction for the duration of one
        operation — the donation walk's own path must never be reclaimed
        by the eviction *that donation itself triggers* (the new node
        would attach under a detached parent, leaking its sequence).

        The full-tree LRU scan per call is fine: every node holds a pool
        sequence, so the tree can never outgrow the pool's capacity
        (tens of nodes) — even a drain loop stays trivially cheap.
        """
        leaves = [n for n in self.tree.evictable_leaves() if n not in protect]
        if not leaves:
            return 0
        node = leaves[0]
        ops.append(
            CacheOp(CacheOpKind.SEQ_RM, node.seq, node.seq, node.start, node.end)
        )
        freed = node.n_cells
        self.tree.remove_leaf(node)
        self.pool.release(node.seq)
        self.retained_cells -= freed
        self.stats["evictions"] += 1
        self.stats["evicted_cells"] += freed
        return freed

    def evict_lru_leaf(self) -> Tuple[int, List[CacheOp]]:
        """Evict the single LRU unpinned leaf: ``(cells_freed, seq_rm ops)``.

        Serving admission calls this when a new request's post-match
        demand does not fit beside the retained cells: cached prefixes
        are reclaimable capacity, released on demand.  The returned ops
        are pipelined before the admitted request's prefill, so the
        freed cells are really available by the time its allocation
        executes on a worker.  ``(0, [])`` when everything left is
        pinned (or the tree is empty).
        """
        ops: List[CacheOp] = []
        freed = self._evict_one(ops)
        return freed, ops

    def ops_for_pool_seq(self) -> Tuple[bool, List[CacheOp]]:
        """Free one pool sequence for admission, evicting LRU leaves.

        Returns ``(success, ops)``.  Ops from partial evictions must be
        sent even on failure — the head-side tree already dropped those
        nodes, and their sequences return to the pool for reuse, so the
        workers must see the matching ``seq_rm`` before any reuse.
        """
        ops: List[CacheOp] = []
        return self._seq_available(ops), ops

    # -- accounting ----------------------------------------------------------

    def evictable_cells(self) -> int:
        """Retained cells reclaimable right now (unpinned subtrees)."""
        return self.tree.evictable_cells()

    def stats_dict(self) -> Dict[str, int]:
        out = dict(self.stats)
        out["retained_cells"] = self.retained_cells
        out["retained_nodes"] = len(self.tree)
        return out
