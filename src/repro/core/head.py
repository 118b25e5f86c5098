"""Per-request operations of the head (paper Section IV).

The head holds no target layers.  Its loop, the serving head in
:mod:`repro.serve.head`, serves every engine; a single job is its
one-request case.  For PipeInfer, whose rank 0 hosts the draft model, it
implements continuous asynchronous speculation over one or many requests.
Per iteration it:

1. samples/verifies waiting logits — advances the accepted stream, emits
   acceptance/release cache ops, detects invalidated and superfluous runs,
   and back-propagates cancellations;
2. dispatches the canonical (non-speculative) run for any accepted tip no
   live in-flight run will predict — guaranteeing forward progress even
   with zero speculation accuracy;
3. drafts the next speculative micro-batch continuing each chain and
   dispatches it into the pipeline under a fresh KV sequence partition,
   with its context copy-ops pipelined ahead of it;
4. otherwise waits for a message.  A draft round that fails below the
   cutoff decays it once (IV-B2).

The synchronous baselines are two policies of the same loop.  Iterative
(and SingleNode) skip step 3, so each token is one canonical run.
Speculative replaces steps 2 and 3 with one tree round
(:func:`start_tree_round`, :func:`dispatch_tree`) whenever its tip is
uncovered and nothing is in flight; :func:`verify_run_logits` verifies
the tree run.

Everything here operates on a :class:`RequestContext`; the loop itself
lives in :func:`repro.serve.head.serving_head`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.comm.message import Tag
from repro.comm.payloads import (
    Activations,
    CacheOp,
    CacheOpKind,
    DecodeMeta,
    FusedRun,
    TokenSlot,
)
from repro.comm.transactions import send_cancel, send_decode, send_fused
from repro.core.continuous import CutoffController
from repro.core.multibuffer import MultibufferManager
from repro.core.run_state import RequestContext, RunFIFO, RunKind, RunRecord
from repro.engines.base import GenerationJob
from repro.models.sampler import argmax_token
from repro.spec.draft import draft_tree
from repro.spec.tree import assign_tree_seqs
from repro.spec.verify import verify_chain, verify_tree

#: Head-node CPU cost to sample/verify one logits vector.
SAMPLE_TIME_PER_LOGIT = 3e-5

#: Wire size of the token-ids-only activation record the head sends.
TOKEN_ACTIVATION_BYTES_PER_TOKEN = 4.0


def new_request_context(
    engine,
    job: GenerationJob,
    kv: MultibufferManager,
    metrics,
    req_id: int = 0,
    arrival: float = 0.0,
) -> RequestContext:
    """Build the head-side state for one request."""
    cfg = engine.config
    return RequestContext(
        req_id=req_id,
        job=job,
        accepted=list(job.prompt),
        chain=engine.backend.new_chain(job.prompt),
        fifo=RunFIFO(),
        kv=kv,
        cutoff=CutoffController(
            cfg.draft.cutoff, cfg.cutoff_recovery, cfg.cutoff_decay
        ),
        metrics=metrics,
        arrival=arrival,
    )


# ---------------------------------------------------------------------------
# Per-request operations.
# ---------------------------------------------------------------------------


def build_run_payload(
    be, rec: RunRecord, states, want_all_logits: bool = True
) -> Tuple[DecodeMeta, Activations]:
    """The (meta, activations) pieces of one run's decode transaction.

    ``want_all_logits`` is True for verification runs (every slot's logits
    feed the verify walk) and False for prefill, where only the last
    prompt slot's logits are sampled.  The meta's wire size comes from
    the backend ``be``'s cost descriptor.

    A tree run's first slot is the tip, whose cell is written after the
    branch copies, so it joins the run's sequence and every branch; each
    tree node belongs to the branches of every leaf beneath it, so
    attending within one branch sees exactly its ancestors.
    """
    start = rec.start_pos
    tree = rec.tree
    if tree is None:
        seqs = (rec.seq_id,)
        last = len(rec.tokens) - 1
        slots = [
            TokenSlot(tok, start + i, seqs, want_all_logits or i == last)
            for i, tok in enumerate(rec.tokens)
        ]
    else:
        branches = rec.branch_seqs
        slots = [TokenSlot(rec.tokens[0], start, (rec.seq_id, *branches), True)]
        for node, seqs in zip(tree.nodes, assign_tree_seqs(tree, branches)):
            slots.append(TokenSlot(node.token, node.pos, tuple(sorted(seqs)), True))
    meta = DecodeMeta(
        rec.run_id, slots, rec.is_speculative, be.meta_nbytes(len(slots)), states
    )
    nbytes = TOKEN_ACTIVATION_BYTES_PER_TOKEN * len(rec.tokens)
    return meta, Activations(rec.run_id, nbytes=nbytes, hidden=None)


def track_dispatch(ctx: RequestContext, rec: RunRecord) -> None:
    """Per-dispatch bookkeeping: push ``rec`` onto the request's run FIFO
    and count the dispatch.

    Shared by :func:`dispatch_prefill` and :func:`dispatch_burst`, so a
    run is tracked the same way whichever transaction carries it.
    """
    ctx.fifo.push(rec)
    ctx.metrics.stats.dispatched += 1


def canonical_entry(engine, ctx: RequestContext):
    """Build (rec, states) for the tip's guaranteed-progress run."""
    tip = len(ctx.accepted) - 1
    rec = RunRecord(
        engine.new_run_id(),
        RunKind.CANONICAL,
        [ctx.accepted[tip]],
        tip,
        ctx.kv.canonical,
    )
    states = engine.backend.slot_states(ctx.chain, tip, 1)
    ctx.metrics.stats.canonical += 1
    return rec, states


def dispatch_prefill(engine, ctx: RequestContext, start_pos: int = 0) -> RunRecord:
    """Send ``ctx.accepted[start_pos:]`` through the pipeline as a prefill run.

    The head does not block on it: the prefill enters the request FIFO
    like any other run and its logits are sampled on arrival
    (:func:`process_prefill_logits`).  The head calls it from two sites:

    - at admission, when ``ctx.accepted`` is still exactly the prompt;
    - in crash recovery, where a restarted worker comes back with an empty
      KV shard and every live request re-runs its accepted tokens (prompt
      plus verified output) as a fresh prefill.  Greedy decoding depends
      only on the token prefix, so the logits sample exactly the token the
      lost in-flight runs would have produced — recovery changes timing,
      never output.

    ``start_pos`` skips a prefix the prefix cache materialized by pipelined
    ``seq_cp`` transactions (IV-C3): only the unmatched tail is evaluated,
    attending over the copied cells exactly as the full prefill would.
    The cache caps matches below the stream length, so the tail — and the
    last-slot logits that sample the next token — is never empty.
    """
    rec = RunRecord(
        engine.new_run_id(),
        RunKind.PREFILL,
        ctx.accepted[start_pos:],
        start_pos,
        ctx.kv.canonical,
    )
    be = engine.backend
    states = be.slot_states(ctx.chain, start_pos, len(rec.tokens))
    meta, act = build_run_payload(be, rec, states, want_all_logits=False)
    send_decode(engine.ep(), engine.target_ranks()[0], meta, act)
    track_dispatch(ctx, rec)
    return rec


def process_prefill_logits(engine, ctx: RequestContext, payload) -> None:
    """Sample the first token from a prefill run's logits."""
    first = argmax_token(payload.logits[0])
    ctx.accepted.append(first)
    ctx.chain.append(first)
    ctx.prefilled = True
    ctx.metrics.mark_prefill_end(engine.net.kernel.now)
    if ctx.stream is not None:
        ctx.stream.push(engine.net.kernel.now, (first,))


def cancel_run(
    engine, ctx: RequestContext, rec: RunRecord, invalid: bool, cancels: List
) -> None:
    """Mark and (for speculative runs) back-propagate a cancel signal.

    The wire send is deferred: the run id is appended to ``cancels`` for
    the caller to flush with :func:`send_cancels` *after* charging the
    sampling delay that produced the decision — the signal must not leave
    before the verification work it depends on is done.  Bookkeeping
    (stats, eligibility) is decided immediately.
    """
    cfg = engine.config
    stats = ctx.metrics.stats
    if invalid:
        stats.cancelled_invalid += 1
    else:
        stats.cancelled_superfluous += 1
    if cfg.enable_cancellation and rec.is_speculative and not rec.superfluous:
        stats.cancel_signals_sent += 1
        cancels.append(rec.run_id)


def send_cancels(engine, run_ids: Sequence[int]) -> None:
    """Send cancel signals into the far end of the pipeline.

    Each signal relays from there toward earlier stages (IV-D2); workers
    probe for it between compute chunks.
    """
    ep = engine.ep()
    last_target = engine.target_ranks()[-1]
    for rid in run_ids:
        send_cancel(ep, last_target, rid)


def verify_run_logits(
    engine,
    ctx: RequestContext,
    payload,
    ops: List,
    cancels: List,
    time_base: float = 0.0,
) -> float:
    """Sampling/verification core for the request's oldest in-flight run.

    Plain function (no yields) so batch-draining heads can verify several
    logits messages in one generator step: cache ops are *appended* to
    ``ops`` and cancel signals to ``cancels`` for the caller to flush
    (one transaction / one signal burst) after charging the returned
    sampling time (one cumulative ``Delay`` per drain round) — nothing
    this verification decides may hit the wire before its compute time is
    paid.  ``time_base`` is the sampling time already accumulated this
    round; accepted tokens are stamped at ``now + time_base + t`` — where
    sequential per-message processing would have recorded them.

    Appended op order (acceptance before release, request-FIFO order
    across calls) matches the order the historical per-message sends put
    on the wire, so workers apply them identically.
    """
    kernel = engine.net.kernel
    stats = ctx.metrics.stats
    mb: MultibufferManager = ctx.kv
    accepted = ctx.accepted
    chain = ctx.chain

    rec = ctx.fifo.pop()
    if rec.run_id != payload.run_id:
        raise RuntimeError(
            f"FIFO desync: expected run {rec.run_id}, got {payload.run_id}"
        )
    if rec.is_speculative:
        ctx.n_spec_inflight -= 1
    stats.completed += 1

    def release() -> None:
        ops.extend(mb.ops_for_release(rec))
        mb.on_run_complete(rec)

    if payload.cancelled or rec.cancelled or ctx.done or rec.superfluous:
        # Cancelled/stale runs skip sampling: superfluous runs were
        # evaluated in full (canonical) or raced the mark (speculative);
        # their predictions are already known.
        release()
        return 0.0

    # ---- sampling / verification --------------------------------------
    t = SAMPLE_TIME_PER_LOGIT * max(len(payload.logits), 1)

    if rec.tree is None:
        outcome = verify_chain(
            len(accepted), rec.start_pos, rec.tokens, payload.logits
        )
    else:
        outcome = verify_tree(payload.logits[0], rec.tree, payload.logits[1:])
        stats.draft_tokens_accepted += outcome.n_draft_accepted
        stats.draft_tokens_checked += outcome.n_draft_checked
        ops.extend(tree_path_ops(rec, outcome.matched_nodes, mb.canonical))

    old_len = len(accepted)
    if outcome.new_tokens:
        accepted.extend(outcome.new_tokens)
        # Drafted-token accounting: verification just fixed the true
        # token at each new position; drafted tokens there were checked.
        # (Tree runs count theirs from the outcome; they leave no drafts.)
        if ctx.drafted:
            for p in range(old_len, len(accepted)):
                d = ctx.drafted.pop(p, None)
                if d is not None:
                    stats.draft_tokens_checked += 1
                    if d == accepted[p]:
                        stats.draft_tokens_accepted += 1
        ctx.metrics.record_tokens(
            kernel.now + time_base + t, len(outcome.new_tokens)
        )
        if ctx.stream is not None:
            # Streamed at the acceptance instant — the same timestamp the
            # metrics stamp — so a front-end sees tokens exactly when the
            # head accepts them, not at drain time.
            ctx.stream.push(kernel.now + time_base + t, outcome.new_tokens)
        ctx.cutoff.on_accepted()
        ops.extend(mb.ops_for_acceptance(rec, len(accepted)))
    release()

    # ---- chain reconciliation and invalidation -------------------------
    # The chain started with the accepted stream on entry, so only the
    # newly accepted positions can disagree with it.
    common = chain.common_prefix(accepted, old_len)
    if common < min(len(chain), len(accepted)):
        # Divergence: drafted tokens from ``common`` on were wrong.
        chain.reconcile(accepted, common)
        mb.on_chain_reset()
        for dead in ctx.fifo.invalidate_after(common):
            cancel_run(engine, ctx, dead, invalid=True, cancels=cancels)
        # Tokens drafted beyond the divergence die unchecked.
        for p in [p for p in ctx.drafted if p >= len(accepted)]:
            del ctx.drafted[p]
    elif len(chain) < len(accepted):
        # Pure extension: verification ran past the drafted chain.
        chain.reconcile(accepted, common)
    for stale in ctx.fifo.mark_superfluous(accepted):
        cancel_run(engine, ctx, stale, invalid=False, cancels=cancels)
    return t


def spec_allowed(engine, ctx: RequestContext, n_active: int) -> bool:
    """The speculation gate: may this request draft now?  Depth adapts to
    concurrency.

    A lone request fills pipeline bubbles with *depth* — chains of
    unverified micro-batches up to ``lookahead_cap``.  Under serving load
    the batched draft round fills them with *width* (one run per
    request), and deep per-request chains become waste: every chained
    run builds on unverified drafts, so one early rejection invalidates a
    whole tower per request — multiplied by however many requests drafted
    in lockstep.  The gate therefore shares the lookahead budget across
    the active set: each request may hold about

        ``(lookahead_cap / microbatch_size) / n_active``

    speculative runs in flight (at least one).  With one active request
    this is the full depth; with many, chaining tapers off and
    cross-request width keeps the pipeline saturated instead — speculation
    depth adapting to real-time conditions, as IV-B2 prescribes for the
    cutoff.  The Figure-8 non-continuous ablation keeps its one-run rule.
    """
    cfg = engine.config
    if not cfg.enable_continuous:
        return ctx.kv.can_allocate() and ctx.n_spec_inflight == 0
    depth_budget = max(
        1, (cfg.lookahead_cap // max(cfg.microbatch_size, 1)) // max(n_active, 1)
    )
    return (
        ctx.kv.can_allocate()
        and ctx.n_spec_inflight < depth_budget
        and len(ctx.chain) - len(ctx.accepted) < cfg.lookahead_cap
    )


def start_draft_round(engine, ctxs: Sequence[RequestContext], on_complete) -> None:
    """Lockstep batched drafting across several requests' chains.

    Each step proposes the next token for *every* participating chain in
    one batched draft pass (:meth:`~repro.engines.backend.Backend.propose_multi`)
    charged a single fused pass time; a chain whose confidence falls below
    its request's cutoff drops out of the round, the rest continue up to
    ``microbatch_size`` tokens.  The passes run as chained kernel events,
    and ``on_complete(proposed)`` is invoked at the instant the round ends
    with ``req_id -> proposal count`` (zero entries mean that request's
    cutoff halted drafting immediately).  Completes synchronously (before
    returning) when there are no participants or drafting is disabled.
    """
    be = engine.backend
    cfg = engine.config
    ep = engine.ep()
    kernel = engine.net.kernel
    last_target = engine.target_ranks()[-1]

    participants = list(ctxs)
    proposed: Dict[int, int] = {ctx.req_id: 0 for ctx in ctxs}
    if not participants or cfg.microbatch_size <= 0:
        on_complete(proposed)
        return

    busy_acc = [0.0]
    passes_left = [cfg.microbatch_size]

    def schedule_pass() -> None:
        t = be.draft_batch_time(len(participants))
        busy_acc[0] += t
        kernel.call_at(kernel.now + t, complete_pass)

    def complete_pass() -> None:
        nonlocal participants
        engine.metrics.record_draft_batch(len(participants))
        results = be.propose_multi([ctx.chain for ctx in participants])
        keep = []
        for ctx, (token, conf) in zip(participants, results):
            if conf < ctx.cutoff.current:
                continue
            ctx.drafted[len(ctx.chain)] = token
            ctx.chain.append(token)
            proposed[ctx.req_id] += 1
            keep.append(ctx)
        participants = keep
        passes_left[0] -= 1
        # Probe between draft passes (a head-side synchronization
        # point): when logits are waiting, dispatch what we have
        # and go sample — sampling latency must not grow with the
        # draft model's size (Section IV-A).
        if (
            not participants
            or passes_left[0] <= 0
            or ep.iprobe(last_target, Tag.LOGITS)
        ):
            engine.metrics.add_busy(0, busy_acc[0])
            on_complete(proposed)
        else:
            schedule_pass()

    schedule_pass()


def dispatch_burst(engine, entries) -> List[int]:
    """Send several runs into the pipeline as coalesced burst transactions.

    ``entries`` is an ordered list of ``(ctx, rec, states, ops)``: each
    run's record, its per-slot oracle states, and the cache ops that must
    precede it (context materialization — Section IV-C3).  The whole list
    travels as FUSED transactions of at most ``max_fused_runs`` runs each,
    every run's ops immediately before it, so the first stage's fusion
    window sees the burst at once instead of dribbling one run per head
    iteration.  The per-request FIFOs and the returned req-id order match
    the entry order, which MPI non-overtaking turns into the logits
    return order.
    """
    cap = engine.config.max_fused_runs
    be = engine.backend
    ep = engine.ep()
    first_target = engine.target_ranks()[0]
    rids: List[int] = []
    items: List = []
    n_runs = 0
    for ctx, rec, states, ops in entries:
        if n_runs >= cap:
            send_fused(ep, first_target, items)
            items, n_runs = [], 0
        if ops:
            items.append(list(ops))
        items.append(FusedRun(*build_run_payload(be, rec, states)))
        n_runs += 1
        track_dispatch(ctx, rec)
        rids.append(ctx.req_id)
    if items:
        send_fused(ep, first_target, items)
    return rids


def dispatch_spec_burst(engine, dispatches) -> List[int]:
    """Dispatch one speculative run per ``(ctx, n_proposed)`` pair.

    Allocates each request's partition, builds its context ops and run
    record in order, and hands the whole batch to :func:`dispatch_burst`.
    Returns the dispatched req ids in order (the serving head appends
    them to its global logits-arrival FIFO).
    """
    be = engine.backend
    entries = []
    for ctx, n in dispatches:
        chain = ctx.chain
        mb: MultibufferManager = ctx.kv
        seq = mb.allocate()
        start = len(chain) - n
        ops = mb.ops_for_spec_dispatch(seq, len(ctx.accepted), start)
        rec = RunRecord(
            engine.new_run_id(),
            RunKind.SPECULATIVE,
            chain.tokens[start:],
            start,
            seq,
        )
        states = be.slot_states(chain, start, n)
        entries.append((ctx, rec, states, ops))
        mb.on_spec_dispatch(seq)
        ctx.n_spec_inflight += 1
        ctx.metrics.stats.speculative += 1
        ctx.metrics.stats.draft_tokens_proposed += n
        ctx.cutoff.on_dispatched()
    return dispatch_burst(engine, entries)


# ---------------------------------------------------------------------------
# Synchronous tree speculation (the Speculative baseline).
# ---------------------------------------------------------------------------


def start_tree_round(engine, ctx: RequestContext, per_token: float, on_complete) -> None:
    """Draft one speculation tree at the request's tip (paper Section III).

    The synchronous baseline distributes *both* models across the ranks
    (llama.cpp MPI), so every drafted token traverses the whole pipeline
    while the target stages idle: the round costs ``max(len(tree), 1) ×
    per_token`` (:meth:`~repro.engines.backend.Backend.draft_pipeline_token_time`).
    The tree is drafted from the backend's cursor for the chain, so head
    work is paid per tree edge, not per context token.  The cost elapses
    as one kernel event, at whose instant ``on_complete(tree)`` runs.
    """
    be = engine.backend
    kernel = engine.net.kernel
    tree = draft_tree(
        be, be.draft_cursor(ctx.chain), len(ctx.accepted) - 1, engine.config.draft
    )
    cost = max(len(tree), 1) * per_token

    def drafted() -> None:
        # Each target rank computes its share of every drafted token.
        engine.metrics.add_busy(0, cost / len(engine.target_ranks()))
        on_complete(tree)

    kernel.call_at(kernel.now + cost, drafted)


def dispatch_tree(engine, ctx: RequestContext, tree, branch_seqs: Sequence[int]) -> List[int]:
    """Send the tip token and ``tree`` through the pipeline as one run.

    Each leaf's branch lives in its own pool partition (``branch_seqs``,
    one per leaf); :func:`build_run_payload` gives every slot its branch
    set.  The run's cache ops copy the canonical prefix into every branch
    ahead of it in the same burst.  The record starts at the tip with the
    tip token, so it covers the tip until its logits return.  Returns the
    dispatched req ids, as :func:`dispatch_burst` does.
    """
    stats = ctx.metrics.stats
    tip = len(ctx.accepted) - 1
    canonical = ctx.kv.canonical
    rec = RunRecord(
        engine.new_run_id(),
        RunKind.SPECULATIVE,
        [ctx.accepted[tip]] + [node.token for node in tree.nodes],
        tip,
        canonical,
        tree=tree,
        branch_seqs=tuple(branch_seqs),
    )
    # The tip's state comes from the chain; an oracle tree node's cursor
    # is already the rolling state after its path.
    states = engine.backend.slot_states(ctx.chain, tip, 1)
    if states is not None:
        states.extend(node.cursor for node in tree.nodes)
    ops = [CacheOp(CacheOpKind.SEQ_CP, canonical, b, 0, tip + 1) for b in branch_seqs]
    rids = dispatch_burst(engine, [(ctx, rec, states, ops)])
    ctx.n_spec_inflight += 1
    stats.speculative += 1
    stats.draft_tokens_proposed += len(tree)
    return rids


def tree_path_ops(rec: RunRecord, matched: Sequence[int], canonical: int) -> List:
    """Copy a verified tree run's accepted path into the canonical sequence.

    Any branch through the last matched node holds the whole path.  The
    bonus or correction token has no cell yet, as for chain runs.
    """
    if not matched:
        return []
    tree = rec.tree
    branches = rec.branch_seqs
    if len(branches) == 1:  # a chain tree
        path_seq = branches[0]
    else:
        path_seq = min(assign_tree_seqs(tree, branches)[matched[-1]])
    lo = tree.nodes[matched[0]].pos
    hi = tree.nodes[matched[-1]].pos + 1
    return [CacheOp(CacheOpKind.SEQ_CP, path_seq, canonical, lo, hi)]
