"""The serving head: request streams through one long-lived pipeline.

One head loop, :func:`serving_head`, serves every engine.  It is the
PipeInfer head generalized from one job to many: it multiplexes
canonical and speculative runs of every *active* request through the
pipeline, filling bubbles left by one request's cancelled or exhausted
speculation with another request's work (the composition PipeSpec
observes falls out of asynchronous speculation naturally).  Per-request
state lives in :class:`~repro.core.run_state.RequestContext`; KV sequence
slots are partitioned across requests by a shared
:class:`~repro.util.fifo.SequencePool` — each request owns a canonical
partition for its lifetime and returns it (plus any speculative
partitions) on completion.  With ``EngineConfig.prefix_cache`` on, the
pool additionally backs a cross-request prefix cache
(:mod:`repro.cache.prefix`): admissions materialize cached prompt
prefixes by pipelined ``seq_cp``/``seq_broadcast`` transactions and
prefill only the unmatched tail; completions donate their verified
prompt KV back instead of releasing it.

The synchronous baselines are policies of the same loop, named by the
engine's ``synchronous`` attribute and ``hosts_draft()``.  A synchronous
engine admits a request only when nothing is active, so it serves FCFS.
Iterative and SingleNode draft nothing: every token is one canonical
run.  Speculative drafts one tree whenever its tip is uncovered and
nothing is in flight, and verifies it before drafting the next.  Every
engine therefore gets the same crash recovery, cancellation, streams and
prefix-cache plumbing.

The head reads the replica's
:class:`~repro.serve.scheduler.RequestScheduler`, into which the cluster
driver pushes requests one at a time: it keeps the pipeline up while its
queue is open, and shuts it down once the queue is closed and every
request has completed.  It records a
:class:`~repro.metrics.report.RequestReport` per request and leaves the
list on ``engine.request_reports``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, List

from repro.comm.message import Tag
from repro.comm.payloads import SEQ_END, CacheOp, CacheOpKind
from repro.comm.transactions import send_cache_ops, send_shutdown
from repro.core.head import (
    canonical_entry,
    dispatch_burst,
    dispatch_prefill,
    dispatch_spec_burst,
    dispatch_tree,
    new_request_context,
    cancel_run,
    process_prefill_logits,
    send_cancels,
    spec_allowed,
    start_draft_round,
    start_tree_round,
    verify_run_logits,
)
from repro.cache.prefix import PrefixCacheManager, PrefixMatch
from repro.core.multibuffer import CellBudget, acquire_canonical
from repro.core.run_state import RequestContext, RunKind
# Not called here: bench/tests/test_bench_tracer.py checks through this
# name that the tracer patches a function in every module importing it.
from repro.engines.backend import apply_cache_op  # noqa: F401
from repro.metrics.collectors import MetricsCollector, RunStats
from repro.metrics.report import RequestReport
from repro.serve.scheduler import RequestScheduler, post_match_cell_demand
from repro.util.fifo import SequencePool


def _report_for(ctx: RequestContext) -> RequestReport:
    """Freeze a completed context into its report."""
    m = ctx.metrics
    finish = m.finish_time if m.finish_time is not None else ctx.finished_at
    return RequestReport(
        req_id=ctx.req_id,
        tokens=ctx.output_tokens(),
        arrival=ctx.arrival,
        admitted_at=ctx.admitted_at if ctx.admitted_at is not None else ctx.arrival,
        prefill_end=m.prefill_end if m.prefill_end is not None else ctx.arrival,
        finish_time=finish if finish is not None else ctx.arrival,
        itl_samples=m.itl_samples(),
        stats=m.stats,
        prompt_tokens=ctx.n_prompt,
        cached_tokens=ctx.cached_tokens,
        priority=ctx.priority,
        ttft_slo=ctx.ttft_slo,
        itl_slo=ctx.itl_slo,
        cancelled=ctx.cancelled,
    )


def serving_head(engine, scheduler: RequestScheduler) -> Generator:
    """Head process serving a request stream, for every engine.

    A single job runs through it as a one-request queue
    (:func:`repro.engines.base.run_engine`).  The paper's four priorities
    (sample waiting logits, keep the tip covered, speculate, idle)
    become, per iteration: admit arrived requests, sample the oldest
    waiting logits (the global dispatch FIFO identifies the owning
    request), dispatch canonical runs for every request whose tip is
    uncovered, then run a *batched draft round*: all requests that may
    speculate draft together (their one-token draft decodes evaluate as
    one cross-request batch) and their speculative runs leave as one
    transaction burst — the draft scheduler keeping the pipeline's fusion
    windows wide in steady state.

    A synchronous engine admits one request at a time and never runs the
    draft round.  If it hosts a draft model (Speculative), an uncovered
    tip with nothing in flight starts a tree round instead of a
    canonical run.
    """
    cfg = engine.config
    #: The engine's policy (module docstring).
    sync = engine.synchronous
    trees = sync and engine.hosts_draft()
    if trees:
        nodes = [engine.cluster.nodes[r] for r in engine.target_ranks()]
        per_draft_token = engine.backend.draft_pipeline_token_time(
            nodes, engine.cluster.link_spec.latency
        )
    ep = engine.ep()
    kernel = engine.net.kernel
    last_target = engine.target_ranks()[-1]
    first_target = engine.target_ranks()[0]

    pool = SequencePool(cfg.n_seq_partitions)
    budget = CellBudget(engine.backend.worker_cell_capacity())
    active: Dict[int, RequestContext] = {}
    #: Request ids in decode-dispatch order — MPI non-overtaking returns
    #: logits in exactly this order, so the front names the owner of any
    #: arriving logits message.
    order: Deque[int] = deque()
    #: Round-robin rotation for drafting fairness.
    rotation: Deque[int] = deque()
    reports: List[RequestReport] = []

    cache = (
        PrefixCacheManager(pool, cfg.prefix_cache_cells, cfg.min_match_tokens)
        if cfg.prefix_cache
        else None
    )
    # Exposed so the cluster router's prefix-affinity policy can probe this
    # replica's radix tree (a pure match, no pins) at routing time.
    engine.prefix_cache = cache

    injector = engine.injector
    #: Run ids flushed by crash recovery: their logits (if a surviving
    #: downstream stage still returns them) are discarded on arrival
    #: instead of being matched against the rebuilt dispatch order.
    flushed: set = set()

    def ensure_pool_seq() -> bool:
        """A canonical partition is available, evicting cached prefixes
        if the pool ran dry — retained sequences yield to admission."""
        if pool.available():
            return True
        if cache is None:
            return False
        ok, ops = cache.ops_for_pool_seq()
        if ops:
            send_cache_ops(ep, first_target, ops)
        budget.retained = cache.retained_cells
        return ok

    def fits_with_reclaim(demand: int) -> bool:
        """Admission cell check; LRU-evicts cached prefixes to make room.

        Eviction ``seq_rm`` ops are pipelined *before* the admitted
        request's materialization and prefill transactions, so by the
        time its allocations execute on a worker the freed cells are
        really free — reclaimable means reclaimable.

        Two guards keep the eviction honest: nothing is evicted when
        even reclaiming *every* evictable cell could not close the gap
        (the pressure comes from active requests, and wiping the tree
        would only forfeit future hits for no room gained); and a
        request that would run alone is admitted after the drain
        regardless — the surfaced-overflow escape hatch an oversized
        single job has always had — even when its own pinned match
        keeps ``budget.retained`` above zero.
        """
        fit = budget.fits(demand)
        if fit or cache is None:
            return fit
        gap = budget.committed + budget.retained + demand - budget.capacity
        if active and cache.evictable_cells() < gap:
            return False
        while not budget.fits(demand):
            got, ops = cache.evict_lru_leaf()
            if not got:
                break
            budget.retained = cache.retained_cells
            send_cache_ops(ep, first_target, ops)
        return budget.fits(demand) or not active

    def admit_ready() -> None:
        # Bounded caches (functional mode) cannot evict mid-flight, so
        # admission waits for cell room.  The static budget check is O(1):
        # the committed total is maintained on admit/release rather than
        # re-summed over active requests or scanned from cache cells.
        # With the prefix cache on, the cost model charges the *post-match*
        # demand — matched positions are metadata copies, not new cells —
        # and the whole sweep's materializations coalesce per cached node
        # (one seq_broadcast per node shared by several admissions).
        admitted: List = []
        while (
            not (sync and active)
            and scheduler.ready(kernel.now)
            and scheduler.may_admit(len(active))
        ):
            req = scheduler.peek_ready(kernel.now)
            match = cache.match(req.job.prompt) if cache else PrefixMatch()
            if match:
                # Pin the matched path before any eviction this admission
                # itself triggers can touch it.
                cache.acquire(req.req_id, match, kernel.now)
            demand = post_match_cell_demand(req.job, cfg, match.length)
            # Cell demand first, canonical-partition second: the pool
            # check may evict a cached sequence, which must not happen
            # for an admission the cell check is about to reject anyway.
            if not (fits_with_reclaim(demand) and ensure_pool_seq()):
                if match:
                    cache.release(req.req_id)
                break
            scheduler.pop_ready(kernel.now)
            if cache is not None:
                cache.note_admitted(match)
            metrics = engine.request_metrics[req.req_id] = MetricsCollector()
            ctx = new_request_context(
                engine,
                req.job,
                kv=acquire_canonical(pool),
                metrics=metrics,
                req_id=req.req_id,
                arrival=req.arrival,
            )
            ctx.admitted_at = kernel.now
            ctx.cached_tokens = match.length
            ctx.metrics.stats.cached_prompt_tokens += match.length
            ctx.priority = req.priority
            ctx.ttft_slo = req.ttft_slo
            ctx.itl_slo = req.itl_slo
            if engine.stream_hub is not None:
                ctx.stream = engine.stream_hub.attach(ctx)
            budget.admit(req.req_id, demand)
            active[ctx.req_id] = ctx
            rotation.append(ctx.req_id)
            admitted.append((ctx, match))
        if not admitted:
            return
        if cache is not None:
            ops = cache.ops_for_materialize(
                [(m, ctx.kv.canonical) for ctx, m in admitted if m]
            )
            if ops:
                send_cache_ops(ep, first_target, ops)
        for ctx, match in admitted:
            dispatch_prefill(engine, ctx, start_pos=match.length)
            order.append(ctx.req_id)

    def mark_done(ctx: RequestContext, cancels=None) -> None:
        """Token budget met: stop sampling, flush in-flight speculation."""
        ctx.done = True
        ctx.metrics.mark_finish(kernel.now)
        if ctx.stream is not None:
            # No-op when the stream was already cancel-closed.
            ctx.stream.finish(kernel.now)
        for rec in ctx.fifo.mark_all_cancelled():
            cancel_run(engine, ctx, rec, invalid=False, cancels=cancels)

    def finalize(ctx: RequestContext) -> None:
        """All in-flight runs drained: release the request's partitions.

        With the prefix cache on, the request first *donates* its
        verified prompt KV: the uncached prompt suffix is copied into a
        retained tree sequence, ordered before the canonical partition's
        release in the same transaction batch, so the cells outlive the
        request and the next matching prompt skips their prefill.

        A cancelled request donates its whole *verified* stream instead
        (minus the newest accepted token, whose cell is not resident —
        see ``ops_for_acceptance``): a retried conversation re-submitting
        prompt + partial output skips all of its prefill.
        """
        ops = []
        if cache is not None:
            donated = ctx.job.prompt
            if ctx.cancelled and len(ctx.accepted) - 1 > len(donated):
                donated = ctx.accepted[:-1]
            ops += cache.ops_for_donate(donated, ctx.kv.canonical, kernel.now)
            cache.release(ctx.req_id)
            budget.retained = cache.retained_cells
        ops += ctx.kv.ops_for_request_release()
        send_cache_ops(ep, first_target, ops)
        ctx.kv.release_canonical()
        engine.backend.release_chain(ctx.chain)
        ctx.finished_at = kernel.now
        budget.release(ctx.req_id)
        del active[ctx.req_id]
        rotation.remove(ctx.req_id)
        reports.append(_report_for(ctx))
        scheduler.on_completed(ctx.req_id, kernel.now)

    def process_cancels() -> None:
        """Drain the engine's disconnect inbox (mid-flight cancellation).

        Active requests flip to ``done`` draining mode: every in-flight
        speculative run gets a cancel signal, sampling stops, and the
        request finalizes (KV release + verified-prefix donation) once
        its FIFO empties — exactly the completion path, so cancellation
        can never strand a partition or park the head.  Queued requests
        are removed before admission and reported with zero tokens.
        Unknown ids are ignored (cluster front-ends broadcast cancels to
        every replica without tracking placement).
        """
        rids, engine._cancel_requests = engine._cancel_requests, []
        cancels: List = []
        for rid in rids:
            ctx = active.get(rid)
            if ctx is not None:
                if ctx.done:
                    continue
                ctx.cancelled = True
                if ctx.stream is not None:
                    ctx.stream.cancel(kernel.now)
                mark_done(ctx, cancels)
                if not ctx.fifo:
                    finalize(ctx)
                continue
            req = scheduler.cancel_queued(rid)
            if req is None:
                continue
            if engine.stream_hub is not None:
                stream = engine.stream_hub.get(rid)
                if stream is not None:
                    stream.cancel(kernel.now)
            reports.append(
                RequestReport(
                    req_id=rid,
                    tokens=[],
                    arrival=req.arrival,
                    admitted_at=kernel.now,
                    prefill_end=kernel.now,
                    finish_time=kernel.now,
                    itl_samples=[],
                    stats=RunStats(),
                    prompt_tokens=len(req.job.prompt),
                    priority=req.priority,
                    ttft_slo=req.ttft_slo,
                    itl_slo=req.itl_slo,
                    cancelled=True,
                )
            )
        if cancels:
            send_cancels(engine, cancels)

    def recover_from_restart() -> None:
        """Rebuild pipeline state after a worker crash/restart.

        The restarted worker lost its KV shard and every in-flight message
        addressed to it, so the global logits-arrival FIFO no longer
        predicts what will come back.  Recovery flushes *all* in-flight
        runs (their run ids go to ``flushed`` so surviving stages' logits
        are discarded on arrival), releases their partitions, wipes each
        live request's canonical KV across every stage, and re-prefills the
        verified token stream — warm via the prefix cache when the backend's
        worker KV is metadata-only, cold otherwise.  Greedy decoding makes
        the re-prefilled continuation token-identical to the lost one.
        """
        order.clear()
        warm = cache is not None and engine.backend.kv_is_metadata
        for ctx in list(active.values()):
            mb = ctx.kv
            ops = []
            while ctx.fifo:
                rec = ctx.fifo.pop()
                flushed.add(rec.run_id)
                ops += mb.ops_for_release(rec)
                mb.on_run_complete(rec)
            ctx.n_spec_inflight = 0
            mb.on_chain_reset()
            # The chain starts with the accepted stream: drop the drafts.
            ctx.chain.reconcile(ctx.accepted, len(ctx.accepted))
            for p in [p for p in ctx.drafted if p >= len(ctx.accepted)]:
                del ctx.drafted[p]
            if ctx.done:
                # Budget already met; the flush drained everything.
                if ops:
                    send_cache_ops(ep, first_target, ops)
                finalize(ctx)
                continue
            # Wipe the canonical partition on every stage, then rebuild it
            # from the verified stream (ordering per-link FIFO guarantees
            # the wipe lands after any stale in-flight writes and before
            # the re-prefill executes).
            ops.append(CacheOp(CacheOpKind.SEQ_RM, ctx.kv.canonical, ctx.kv.canonical, 0, SEQ_END))
            start = 0
            if warm:
                match = cache.match(ctx.accepted)
                if match:
                    ops += cache.ops_for_materialize([(match, ctx.kv.canonical)])
                    start = match.length
            send_cache_ops(ep, first_target, ops)
            ctx.prefilled = False
            dispatch_prefill(engine, ctx, start_pos=start)
            order.append(ctx.req_id)
            ctx.metrics.stats.reprefilled_tokens += len(ctx.accepted) - start

    # The head runs as an event-driven state machine: every wait the
    # historical generator loop expressed as a yield (the cumulative
    # sampling delay, the per-round draft future, the idle arrival watch)
    # is a kernel event chaining back into ``step``, at exactly the same
    # simulated instants.  The head *process* parks once, on the ``done``
    # future, so its contribution to the kernel's resume count is constant
    # rather than per-iteration.
    done = kernel.future("serving-done")

    def arrival_step(until) -> None:
        """Re-enter ``step`` on the next wake-up, or at sim time ``until``.

        Wake-ups are message deliveries plus the direct notifications of
        routed requests, cancellations, worker restarts and straggler-window
        ends.  The watcher may resolve mid-delivery-batch, so the re-entry
        is deferred with an at-now event — the loop resumes only after the
        current delivery event has made its whole batch available, just
        as a parked process resume would.  A timeout the watcher beat
        fires later as a no-op (the kernel has no cancel).
        """
        fut = kernel.future(f"arrival@{ep.rank}")
        fut.detail = f"arrival watch at rank {ep.rank}"
        fut.set_callback(lambda _v: kernel.defer(step))
        ep._arrival_watchers.append(fut)
        if until is not None:

            def timeout() -> None:
                if not fut.resolved:
                    fut.resolve(False)

            kernel.call_at(until, timeout)

    def after_draft(ready: List[RequestContext], proposed) -> None:
        dispatches = [
            (ctx, proposed[ctx.req_id])
            for ctx in ready
            if proposed[ctx.req_id]
        ]
        progressed = False
        if dispatches:
            order.extend(dispatch_spec_burst(engine, dispatches))
            progressed = True
        for ctx in ready:
            if not proposed[ctx.req_id]:
                # Draft confidence halted this request's speculation: the
                # cutoff decays once per failed round (IV-B2).
                ctx.cutoff.on_failed_idle()
        # Re-enter the loop when the round dispatched: more may be drafted.
        if progressed:
            step()
        else:
            resume()

    def resume() -> None:
        """Continue after a draft round: re-enter the loop when logits, a
        cancel or a worker restart landed *while the round computed*.

        Each notified the arrival watchers before idle() could park one,
        so parking now would sleep through input that is already waiting
        (a deadlock once no further traffic arrives to re-wake the head).
        """
        if (
            ep.iprobe(last_target, Tag.LOGITS)
            or engine._cancel_requests
            or engine._fault_events
        ):
            step()
        else:
            idle()

    def after_tree(ctx: RequestContext, tree) -> None:
        """A tree round ended: dispatch the tree with one pool partition
        per leaf, or the tip's canonical run when the tree is empty or
        the pool cannot free enough partitions."""
        branches: List[int] = []
        n_leaves = len(tree.leaves())
        while len(branches) < n_leaves and ensure_pool_seq():
            branches.append(ctx.kv.allocate())
        if branches and len(branches) == n_leaves:
            order.extend(dispatch_tree(engine, ctx, tree, branches))
        else:
            for b in branches:
                pool.release(b)
            rec, states = canonical_entry(engine, ctx)
            order.extend(dispatch_burst(engine, [(ctx, rec, states, [])]))
        # The run now covers the tip, and a synchronous engine admits
        # nothing while it is active: the loop has only input to act on.
        resume()

    def idle() -> None:
        # ---- priority 4: idle ---------------------------------------------
        if active and sync:
            # A synchronous engine admits nothing while a request is
            # active and gates no speculation on health: only a message
            # (or a restart's wake) needs the head.
            arrival_step(None)
            return
        if active:
            # Every active request has work in flight (priority 2
            # guarantees tip coverage), so a message is certain to arrive
            # — unless a crash lost it, and then the restart wakes the
            # head.  Park for it; a timeout covers the instants a quiet
            # pipeline must still act at: the next request arrival, and
            # the health gate reopening while degraded.
            until = None
            nxt = scheduler.next_arrival()
            if nxt is not None and nxt > kernel.now:
                # The float ``call_after(nxt - now)`` would arm, which
                # fault-free timings are pinned to (it can differ from
                # ``nxt`` in the last bit).
                until = kernel.now + (nxt - kernel.now)
            if injector is not None:
                reopen = injector.health.recovery_time(kernel.now)
                if reopen is not None and (until is None or reopen < until):
                    until = reopen
            arrival_step(until)
            return
        nxt = scheduler.next_arrival()
        if nxt is not None:
            # With nothing active an arrived request is always admitted
            # (the lone-request escape hatch), so the queue head lies in
            # the future.  The driver may push it before this replica's
            # kernel has reached its arrival.
            assert nxt > kernel.now, "arrived request left unadmitted"
            kernel.call_at(nxt, step)
        elif scheduler.stream_open():
            # Nothing queued: park until the driver pushes a request or
            # closes the queue (both notify this endpoint's arrival
            # watchers).
            arrival_step(None)
        else:
            # The queue closed with nothing left to serve (its last queued
            # request was cancelled): re-enter the loop, which exits.
            step()

    def step() -> None:
        while active or scheduler.has_pending() or scheduler.stream_open():
            if engine._fault_events:
                engine._fault_events.clear()
                recover_from_restart()
            if engine._cancel_requests:
                process_cancels()
            admit_ready()

            # ---- priority 1: sample/verify waiting logits -----------------
            # Fused stage windows return several runs' logits back-to-back,
            # and the batched inbox hand-off makes them all available at
            # once: drain the whole batch in one pass, verifying each run
            # with :func:`verify_run_logits` (plain function), then charge
            # one cumulative sampling delay and flush the accumulated cache
            # ops as a single transaction.  Tokens are stamped at the
            # instant the historical per-message loop would have recorded
            # them.
            msgs = ep.recv_ready(last_target, Tag.LOGITS)
            if msgs:
                cum = 0.0
                pending_ops: List = []
                pending_cancels: List = []
                for msg in msgs:
                    payload = msg.payload
                    if flushed and payload.run_id in flushed:
                        # A stage past the crashed worker still returned
                        # this flushed run; its partition was already
                        # released.
                        flushed.discard(payload.run_id)
                        continue
                    ctx = active[order.popleft()]
                    if ctx.fifo.peek().kind is RunKind.PREFILL:
                        rec = ctx.fifo.pop()
                        if rec.run_id != payload.run_id:
                            raise RuntimeError(
                                f"FIFO desync: expected run {rec.run_id}, "
                                f"got {payload.run_id}"
                            )
                        ctx.metrics.stats.completed += 1
                        if not ctx.done:
                            # A cancelled (or otherwise done) request's
                            # prefill still drains through the pipeline —
                            # its cells are written and released with the
                            # partition — but nothing is sampled.
                            process_prefill_logits(engine, ctx, payload)
                    else:
                        cum += verify_run_logits(
                            engine, ctx, payload, pending_ops,
                            pending_cancels, time_base=cum,
                        )
                    if not ctx.done and ctx.target_reached():
                        mark_done(ctx, pending_cancels)
                    if ctx.done and not ctx.fifo:
                        # finalize() pipelines donate/release ops that must
                        # land after this request's run-release ops: flush
                        # first.
                        if pending_ops:
                            send_cache_ops(ep, first_target, pending_ops)
                            pending_ops = []
                        finalize(ctx)
                if cum:
                    # The op/cancel flush happens *after* the sampling
                    # delay — nothing a verification decided may hit the
                    # wire before its compute time is paid.
                    engine.metrics.add_busy(0, cum)

                    def after_sample(
                        pending_ops=pending_ops,
                        pending_cancels=pending_cancels,
                    ) -> None:
                        if pending_ops:
                            send_cache_ops(ep, first_target, pending_ops)
                        if pending_cancels:
                            send_cancels(engine, pending_cancels)
                        step()

                    kernel.call_after(cum, after_sample)
                    return
                if pending_ops:
                    send_cache_ops(ep, first_target, pending_ops)
                if pending_cancels:
                    send_cancels(engine, pending_cancels)
                continue

            # ---- priority 2: guaranteed forward progress ------------------
            # Every request with an uncovered tip gets its canonical run,
            # all of them coalesced into one burst transaction (dispatch
            # takes no simulated time, so batching them never delays
            # sampling).  A tree-drafting engine starts a tree round here
            # instead, once nothing is in flight (so nothing covers the
            # tip); the tree run then covers the tip until its logits
            # return.
            entries = []
            for rid in list(rotation):
                ctx = active[rid]
                if not ctx.prefilled or ctx.done:
                    continue
                if trees:
                    if not ctx.fifo:
                        start_tree_round(
                            engine, ctx, per_draft_token,
                            lambda tree, ctx=ctx: after_tree(ctx, tree),
                        )
                        return
                elif not ctx.fifo.covers_tip(ctx.accepted):
                    rec, states = canonical_entry(engine, ctx)
                    entries.append((ctx, rec, states, []))
            if entries:
                order.extend(dispatch_burst(engine, entries))
                continue
            if sync:
                idle()
                return

            # ---- priority 3: continuous speculation, batched across -------
            # requests.  The draft scheduler: collect every request whose
            # chain wants a proposal step (rotation order for fairness,
            # capped by the knob and by free KV partitions — each dispatch
            # takes one), run their one-token draft decodes as lockstep
            # batched passes, then send the resulting speculative runs as
            # one transaction burst so the workers' fusion windows see the
            # whole round at once.
            ready: List[RequestContext] = []
            limit = min(cfg.max_draft_batch, pool.n_free)
            if injector is not None and injector.health.degraded(kernel.now):
                # Graceful degradation: a flapping link, straggling stage,
                # or recent crash gates speculation depth to 0 — canonical
                # runs (priority 2) keep every request progressing, and
                # drafting resumes once the health EWMA decays through its
                # low water mark (the stable window).
                limit = 0
            # The depth budget is shared over requests that can actually
            # draft — done-but-draining and un-prefilled requests must not
            # dilute a lone live request below its full historical depth.
            n_draftable = sum(
                1 for c in active.values() if c.prefilled and not c.done
            )
            for rid in list(rotation):
                if len(ready) >= limit:
                    break
                ctx = active[rid]
                if not ctx.prefilled or ctx.done:
                    continue
                if not spec_allowed(engine, ctx, n_draftable):
                    continue
                ready.append(ctx)
            if ready:
                rotation.rotate(-1)
                start_draft_round(
                    engine, ready,
                    lambda proposed, ready=ready: after_draft(ready, proposed),
                )
                return

            idle()
            return

        engine.request_reports = reports
        engine.prefix_cache_stats = (
            cache.stats_dict() if cache is not None else {}
        )
        engine.metrics.mark_finish(kernel.now)
        send_shutdown(ep, first_target)
        done.resolve(None)

    step()
    if not done.resolved:
        yield done
