"""The PipeInfer head-node process (paper Section IV).

Rank 0 hosts the draft model and no target layers.  Its loop implements
continuous asynchronous speculation:

1. if a logits transfer is waiting (probe), run sampling/verification —
   advance the accepted stream, emit acceptance/release cache ops, detect
   invalidated and superfluous runs, and back-propagate cancellations;
2. else, if no live in-flight run will predict the token after the
   accepted tip, dispatch the canonical (non-speculative) run for the tip
   — guaranteeing forward progress even with zero speculation accuracy;
3. else, draft the next speculative micro-batch continuing the chain and
   dispatch it into the pipeline under a fresh KV sequence partition,
   with its context copy-ops pipelined ahead of it;
4. else wait until there is new work: at the lookahead cap or with no
   free partition, for a message; when draft confidence halted drafting,
   for a message or for the retry that would clear the decaying cutoff
   (:func:`idle_below_cutoff` replays the paper's ``idle_poll`` retries
   from one timed wait).

All per-request logic operates on a :class:`RequestContext`, so the same
functions drive both this single-job head and the multi-request serving
head (:mod:`repro.serve.head`), which multiplexes canonical and
speculative runs of many live requests through one pipeline.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Generator, List, Sequence, Tuple

from repro.cluster.kernel import Delay
from repro.comm.message import Tag
from repro.comm.payloads import (
    Activations,
    CancelMsg,
    DecodeMeta,
    FusedRun,
    TokenSlot,
)
from repro.core.continuous import CutoffController, retry_windows
from repro.core.multibuffer import MultibufferManager
from repro.core.run_state import RequestContext, RunFIFO, RunKind, RunRecord
from repro.engines.base import GenerationJob
from repro.models.sampler import argmax_token
from repro.spec.verify import verify_chain

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
# Per-request operations shared by the single-job and serving heads.
# ---------------------------------------------------------------------------


def build_run_payload(
    rec: RunRecord, states, want_all_logits: bool = True
) -> Tuple[DecodeMeta, Activations]:
    """The (meta, activations) pieces of one run's decode transaction.

    ``want_all_logits`` is True for verification runs (every slot's logits
    feed the verify walk) and False for prefill, where only the last
    prompt slot's logits are sampled.
    """
    slots = [
        TokenSlot(
            tok,
            rec.start_pos + i,
            (rec.seq_id,),
            want_logits=want_all_logits or i == len(rec.tokens) - 1,
        )
        for i, tok in enumerate(rec.tokens)
    ]
    meta = DecodeMeta(rec.run_id, slots, rec.is_speculative, oracle_states=states)
    nbytes = TOKEN_ACTIVATION_BYTES_PER_TOKEN * len(rec.tokens)
    return meta, Activations(rec.run_id, nbytes=nbytes, hidden=None)


def send_record(engine, rec: RunRecord, states, want_all_logits: bool = True) -> None:
    """Send one run's decode transaction into the pipeline."""
    first_target = engine.target_ranks()[0]
    # send_decode stamps meta.nbytes from the backend's cost descriptor.
    meta, act = build_run_payload(rec, states, want_all_logits)
    engine.send_decode(first_target, meta, act)


def track_dispatch(ctx: RequestContext, rec: RunRecord) -> None:
    """Per-dispatch bookkeeping: push ``rec`` onto the request's run FIFO
    and count the dispatch.

    Shared by :func:`send_run` and :func:`dispatch_burst`, so a run is
    tracked the same way whichever transaction carries it.
    """
    ctx.fifo.push(rec)
    ctx.metrics.stats.dispatched += 1


def send_run(engine, ctx: RequestContext, rec: RunRecord, states) -> None:
    """Dispatch ``rec`` into the pipeline and track it in the request FIFO."""
    send_record(engine, rec, states)
    track_dispatch(ctx, rec)


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


def dispatch_canonical(engine, ctx: RequestContext) -> RunRecord:
    """The guaranteed-progress single-token run for the accepted tip."""
    rec, states = canonical_entry(engine, ctx)
    send_run(engine, ctx, rec, states)
    return rec


def dispatch_prefill(engine, ctx: RequestContext, start_pos: int = 0) -> RunRecord:
    """Send ``ctx.accepted[start_pos:]`` through the pipeline as a prefill run.

    The single-job head awaits its prefill logits synchronously; the
    serving head cannot block, so the prefill enters the request FIFO like
    any other run and its logits are sampled on arrival
    (:func:`process_prefill_logits`).  The serving head calls it from two
    sites:

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
    states = engine.backend.slot_states(ctx.chain, start_pos, len(rec.tokens))
    send_record(engine, rec, states, want_all_logits=False)
    track_dispatch(ctx, rec)
    return rec


def process_prefill_logits(engine, ctx: RequestContext, payload) -> None:
    """Sample the first token from a prefill run's logits (serving mode)."""
    first = argmax_token(payload.logits[0])
    ctx.accepted.append(first)
    ctx.chain.append(first)
    ctx.prefilled = True
    ctx.metrics.mark_prefill_end(engine.net.kernel.now)
    if ctx.stream is not None:
        ctx.stream.push(engine.net.kernel.now, (first,))


def cancel_run(
    engine, ctx: RequestContext, rec: RunRecord, invalid: bool, cancels=None
) -> None:
    """Mark and (for speculative runs) back-propagate a cancel signal.

    When ``cancels`` is given, the wire send is deferred: the run id is
    appended for the caller to flush with :func:`send_cancels` *after*
    charging the sampling delay that produced the decision — the signal
    must not leave before the verification work it depends on is done.
    Bookkeeping (stats, eligibility) is decided immediately either way.
    """
    cfg = engine.config
    stats = ctx.metrics.stats
    if invalid:
        stats.cancelled_invalid += 1
    else:
        stats.cancelled_superfluous += 1
    if cfg.enable_cancellation and rec.is_speculative and not rec.superfluous:
        stats.cancel_signals_sent += 1
        if cancels is not None:
            cancels.append(rec.run_id)
        else:
            send_cancels(engine, [rec.run_id])


def send_cancels(engine, run_ids: Sequence[int]) -> None:
    """Send cancel signals into the far end of the pipeline.

    Each signal relays from there toward earlier stages (IV-D2); workers
    probe for it between compute chunks.
    """
    ep = engine.ep()
    last_target = engine.target_ranks()[-1]
    for rid in run_ids:
        ep.send(CancelMsg(rid), last_target, Tag.CANCEL, nbytes=16.0, eager=True)


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

    outcome = verify_chain(
        len(accepted), rec.start_pos, rec.tokens, payload.logits
    )

    if outcome.new_tokens:
        old_len = len(accepted)
        accepted.extend(outcome.new_tokens)
        # Drafted-token accounting: verification just fixed the true
        # token at each new position; drafted tokens there were checked.
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
    if not chain.matches_prefix(accepted):
        # Find the divergence point: first index where the drafted
        # chain disagrees (pure extensions reconcile without one).
        div = None
        limit = min(len(chain.tokens), len(accepted))
        for i in range(limit):
            if chain.tokens[i] != accepted[i]:
                div = i
                break
        chain.reconcile(accepted)
        if div is not None:
            mb.on_chain_reset()
            for dead in ctx.fifo.invalidate_after(div):
                cancel_run(engine, ctx, dead, invalid=True, cancels=cancels)
            # Tokens drafted beyond the divergence die unchecked.
            for p in [p for p in ctx.drafted if p >= len(accepted)]:
                del ctx.drafted[p]
    for stale in ctx.fifo.mark_superfluous(accepted):
        cancel_run(engine, ctx, stale, invalid=False, cancels=cancels)
    return t


def process_run_logits(engine, ctx: RequestContext, payload) -> Generator:
    """Sampling/verification for one logits message (per-message form).

    Thin generator over :func:`verify_run_logits`: charges the sampling
    delay, then flushes the run's acceptance + release cache ops as a
    single transaction (historically two) and its cancel signals.  The
    serving head batch-drains via :func:`verify_run_logits` directly.
    """
    ops: List = []
    cancels: List = []
    t = verify_run_logits(engine, ctx, payload, ops, cancels)
    if t:
        yield Delay(t)
        engine.metrics.add_busy(0, t)
    if ops:
        engine.send_cache_ops(engine.target_ranks()[0], ops)
    if cancels:
        send_cancels(engine, cancels)


def spec_allowed(engine, ctx: RequestContext) -> bool:
    """May this request draft a new speculative micro-batch now?"""
    cfg = engine.config
    if cfg.enable_continuous:
        return (
            ctx.kv.can_allocate()
            and len(ctx.chain) - len(ctx.accepted) < cfg.lookahead_cap
        )
    # Figure 8 ablation: asynchronous speculation only — a single
    # (larger) speculative run at a time, never chained.
    return ctx.kv.can_allocate() and ctx.n_spec_inflight == 0


def spec_allowed_serving(engine, ctx: RequestContext, n_active: int) -> bool:
    """Serving-mode speculation gate: depth adapts to concurrency.

    Single-job continuous speculation fills pipeline bubbles with *depth*
    — chains of unverified micro-batches up to ``lookahead_cap``.  Under
    serving load the batched draft round fills them with *width* (one run
    per request), and deep per-request chains become waste: every chained
    run builds on unverified drafts, so one early rejection invalidates a
    whole tower per request — multiplied by however many requests drafted
    in lockstep.  The gate therefore shares the lookahead budget across
    the active set: each request may hold about

        ``(lookahead_cap / microbatch_size) / n_active``

    speculative runs in flight (at least one).  With one active request
    this is the historical depth; with many, chaining tapers off and
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


def draft_round(
    engine, ctxs: Sequence[RequestContext]
) -> Generator[object, object, Dict[int, int]]:
    """Lockstep batched drafting across several requests' chains.

    Each step proposes the next token for *every* participating chain in
    one batched draft pass (:meth:`~repro.engines.backend.Backend.propose_multi`)
    charged a single fused pass time; a chain whose confidence falls below
    its request's cutoff drops out of the round, the rest continue up to
    ``microbatch_size`` tokens.  Returns ``req_id -> proposal count``
    (zero entries mean that request's cutoff halted drafting immediately).

    With one participant this is exactly the historical sequential
    drafting loop; the differential suites pin the wider batches to it.

    The passes run as chained kernel events (each pass's completion
    callback proposes, filters, and schedules the next pass at exactly
    the instants the historical per-pass delay loop hit), so the head
    process parks once on a future for the whole round instead of
    resuming per pass.
    """
    kernel = engine.net.kernel
    fut = kernel.future("draft_round")
    start_draft_round(engine, ctxs, fut.resolve)
    if not fut.resolved:
        yield fut
    return fut.value


def start_draft_round(engine, ctxs: Sequence[RequestContext], on_complete) -> None:
    """Event-driven core of :func:`draft_round`.

    Chains the lockstep draft passes as kernel events and invokes
    ``on_complete(proposed)`` at the instant the round ends — callable
    from plain (non-generator) code such as the serving head's event
    loop.  Completes synchronously (before returning) when there are no
    participants or drafting is disabled.
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
                ctx.halted_conf = conf
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
    cfg = engine.config
    first_target = engine.target_ranks()[0]
    rids: List[int] = []
    items: List = []
    n_runs = 0
    for ctx, rec, states, ops in entries:
        if n_runs >= cfg.max_fused_runs:
            engine.send_burst(first_target, items)
            items, n_runs = [], 0
        if ops:
            items.append(list(ops))
        items.append(FusedRun(*build_run_payload(rec, states)))
        n_runs += 1
        track_dispatch(ctx, rec)
        rids.append(ctx.req_id)
    if items:
        engine.send_burst(first_target, items)
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


def draft_and_dispatch(engine, ctx: RequestContext) -> Generator:
    """Draft a speculative micro-batch and dispatch it; returns the count.

    Returns 0 when the confidence cutoff halted drafting before the first
    proposal (the caller decays the cutoff / moves to another request).
    Single-request form of the batched round: the serving head drafts
    many requests per round through :func:`draft_round` directly.
    """
    proposed = yield from draft_round(engine, [ctx])
    n = proposed[ctx.req_id]
    if n:
        dispatch_spec_burst(engine, [(ctx, n)])
    return n


# ---------------------------------------------------------------------------
# The single-job head loop.
# ---------------------------------------------------------------------------


def idle_below_cutoff(engine, ctx: RequestContext) -> Generator:
    """Idle after a draft attempt failed below the cutoff (IV-B2).

    The paper's head retries every ``idle_poll``: wait, draft one pass,
    fail, decay the cutoff, until logits arrive or a proposal clears.  The
    chain tip cannot move before a message arrives, so every retry would
    propose the same token with confidence ``ctx.halted_conf``, and the
    whole sequence is known in advance.  This waits once: for a message,
    or for the start of the first retry that would succeed.  On waking it
    charges the retries that started before now, each as the loop did:
    one draft-batch sample, ``add_busy`` of one pass, one decay.  A retry
    whose pass was running when the message arrived is charged too, and
    the head resumes where that pass ends, as the loop would.  A message
    at a retry's start instant counts as arriving first.
    """
    cfg = engine.config
    kernel = engine.net.kernel
    metrics = engine.metrics
    cutoff = ctx.cutoff
    cutoff.on_failed_idle()
    failed_at = kernel.now
    draft_time = engine.backend.draft_batch_time(1)
    k = cutoff.failed_attempts_before(ctx.halted_conf)
    until = None
    if k is not None:
        retries = retry_windows(failed_at, draft_time, cfg.idle_poll)
        until, _ = next(islice(retries, k, None))
    yield from engine.ep().wait_for_arrival(until)

    now = kernel.now
    for start, end in retry_windows(failed_at, draft_time, cfg.idle_poll):
        if start >= now:
            return
        metrics.record_draft_batch(1)
        metrics.add_busy(0, draft_time)
        cutoff.on_failed_idle()
        if now <= end:
            break
    if now < end:
        fut = kernel.future("draft_pass")
        kernel.call_at(end, fut.resolve)
        yield fut


def pipeinfer_head(engine, job: GenerationJob) -> Generator:
    """Head process; ``engine`` is the owning :class:`PipeInferEngine`."""
    be = engine.backend
    cfg = engine.config
    ep = engine.ep()
    metrics = engine.metrics
    kernel = engine.net.kernel

    ranks = engine.target_ranks()
    first_target, last_target = ranks[0], ranks[-1]

    ctx = new_request_context(
        engine, job, kv=MultibufferManager(cfg.n_seq_partitions), metrics=metrics
    )

    # ---- prefill -------------------------------------------------------------
    prefill_rec = RunRecord(
        engine.new_run_id(), RunKind.PREFILL, list(job.prompt), 0, ctx.kv.canonical
    )
    states = be.slot_states(ctx.chain, 0, len(job.prompt))
    send_record(engine, prefill_rec, states, want_all_logits=False)
    msg = yield from ep.recv(last_target, Tag.LOGITS)
    first = argmax_token(msg.payload.logits[0])
    ctx.accepted.append(first)
    ctx.chain.append(first)
    ctx.prefilled = True
    metrics.mark_prefill_end(kernel.now)

    # ---- main loop -------------------------------------------------------------
    while not ctx.target_reached():
        # Fused stage windows deliver several runs' logits back-to-back;
        # drain them all before re-walking the priority ladder.
        drained = False
        while not ctx.target_reached() and ep.iprobe(last_target, Tag.LOGITS):
            msg = yield from ep.recv(last_target, Tag.LOGITS)
            yield from process_run_logits(engine, ctx, msg.payload)
            drained = True
        if drained:
            continue

        if not ctx.fifo.covers_tip(ctx.accepted):
            dispatch_canonical(engine, ctx)
            continue

        # ---- continuous speculation ---------------------------------------
        if spec_allowed(engine, ctx):
            proposed = yield from draft_and_dispatch(engine, ctx)
            if not proposed:
                # Draft confidence halted speculation.
                yield from idle_below_cutoff(engine, ctx)
            continue

        # Partitions exhausted or lookahead cap: runs are in flight, so
        # only their logits can change what the head may do next.
        yield from ep.wait_for_arrival()

    engine.finish(job, ctx.accepted)
