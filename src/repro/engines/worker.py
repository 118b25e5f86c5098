"""The pipeline worker process: it runs every target stage of every engine.

No head evaluates a stage; a baseline's head shares rank 0 with the first
stage's worker and feeds it over the rank's zero-cost loopback link.

A worker rank loops on its mailbox:

- **transactions** from its upstream neighbor dispatch to the typed
  handler (decode, cache op, fused window, shutdown) — strictly in send
  order, read from the sender's announcement FIFO
  (:mod:`repro.comm.transactions`), while MPI non-overtaking keeps each
  type's pieces in order (paper Fig. 2);
- **cancellation signals** (their own tag, eager lane) are recorded and
  relayed upstream the moment they arrive, busy window or not; the skip
  decision is taken *between compute chunks* — the paper's "thread
  synchronization points" — letting a node abandon a speculative run
  mid-evaluation (Section IV-D2);
- cancelled runs still forward an **empty activation record** downstream
  so message ordering and per-node state stay intact (IV-D2), and the last
  rank still returns a cancelled logits record so the head can pop its
  run FIFO.

Non-speculative runs are never skipped, even when cancelled: KV
multibuffering's early cache-entry sharing relies on canonical runs
completing (IV-D3); only their final sampling is skipped at the head.

**Fusion window** (multi-run batching): instead of evaluating each run's
1–4-token micro-batch as its own stage pass, a worker drains the
transactions already waiting in its mailbox — decode runs of several
concurrent speculative/canonical runs (and, in serving mode, of several
requests), with any cache-op batches interleaved between them — until
the window holds the stage's roofline ridge in tokens
(:meth:`~repro.engines.backend.Backend.fusion_ridge`: below it a wider
batch is nearly free, above it every extra token costs compute and the
oldest run waits for all of them) or ``max_fuse`` runs, and evaluates
the live runs as **one fused cross-run batch**: a single stage
delay charged for the concatenated token count, one masked attention pass
per layer, then per-run activation records forwarded downstream as a
single FUSED transaction that preserves the original dispatch order.
Cancellation stays live inside a window: a cancel that lands between
compute chunks removes the run from the fused computation, and its empty
record still goes out in its original slot.

A worker builds and sizes nothing on the wire itself: the forwarded
window, the relayed cancel and the relayed shutdown go through the same
senders the head uses (:func:`~repro.comm.transactions.send_fused`,
``send_cancel``, ``send_shutdown``).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Set

from repro.cluster.hardware import NodeSpec
from repro.comm.message import ANY_SOURCE, Tag
from repro.comm.mpi_sim import Network
from repro.comm.payloads import Activations, FusedBatch, FusedRun, LogitsPayload
from repro.comm.transactions import (
    TransactionType,
    recv_piece,
    send_cancel,
    send_fused,
    send_shutdown,
)
from repro.engines.backend import (
    Backend,
    EMPTY_ACTIVATION_NBYTES,
    StageRun,
    WorkerState,
)
from repro.metrics.collectors import MetricsCollector

#: Wire size of a cancelled logits record.
CANCELLED_LOGITS_NBYTES = 24.0

#: Simulated time to apply one pipelined cache-op command.
CACHE_OP_APPLY_TIME = 2e-6

#: Default cap on decode runs fused into one stage window.
DEFAULT_MAX_FUSED_RUNS = 8


def pipeline_worker(
    net: Network,
    rank: int,
    upstream: int,
    downstream: Optional[int],
    head_rank: int,
    backend: Backend,
    ws: WorkerState,
    node: NodeSpec,
    metrics: MetricsCollector,
    max_fuse: int = DEFAULT_MAX_FUSED_RUNS,
    injector=None,
) -> Generator:
    """Worker process for one pipeline rank.

    Args:
        net: the simulation network.
        rank: this worker's rank.
        upstream: rank that feeds this stage (head for the first stage).
        downstream: next stage, or None for the last stage (which returns
            logits to ``head_rank`` instead).
        backend: model behaviour (compute, sizes, timing).
        ws: this rank's worker state (layer range + KV shard).
        max_fuse: cap on decode runs drained into one fusion window
            (1 disables cross-run fusion; windows still absorb cache-op
            transactions between a run and its predecessor).
        injector: optional :class:`repro.faults.FaultInjector`; when set,
            stage compute times are scaled by any active straggler window
            for this rank.  ``None`` on fault-free runs (zero overhead).
    """
    ep = net.endpoint(rank)
    kernel = net.kernel
    cancelled: Set[int] = set()
    #: Flipped when this generator is closed (shutdown or crash): any
    #: window sync-point callbacks still scheduled on the kernel become
    #: no-ops, so a crashed worker stops computing and sending mid-window
    #: exactly as the historical in-generator chunk loop did, and its
    #: cancel relay stops relaying.
    dead = [False]
    #: Token budget of one fusion window: the stage's roofline ridge.
    ridge = backend.fusion_ridge(node, ws.layer_range)

    def busy(seconds: float) -> None:
        metrics.add_busy(rank, seconds)

    def relay_cancels(_msg=None) -> None:
        """Record every waiting cancel, relay it upstream, and re-arm.

        Runs at each cancel's arrival, busy window or not, so a signal
        crosses a busy stage in one hop instead of waiting for that
        stage's next chunk boundary.  The skip decision still waits for a
        sync point: window callbacks read ``cancelled`` there.
        """
        if dead[0]:
            return
        for cmsg in ep.recv_ready(ANY_SOURCE, Tag.CANCEL):
            run_id = cmsg.payload.run_id
            if run_id in cancelled:
                continue
            cancelled.add(run_id)
            # Back-propagate toward earlier stages (IV-D2).  The first
            # target stage's upstream is the head, which originated it.
            if upstream != head_rank:
                send_cancel(ep, upstream, run_id)
        relay = kernel.future(f"cancel-relay@{rank}")
        relay.set_callback(relay_cancels)
        ep.post_probe(ANY_SOURCE, Tag.CANCEL, relay)

    relay_cancels()

    # Receiver discipline: wake on payload *pieces* — one park per
    # transaction; cancels never wake the loop (``relay_cancels`` takes
    # them).  Start markers are announcements, not messages: a delivered
    # piece proves its sender announced the transaction, and the sender's
    # announcement FIFO, oldest first, still sequences dispatch when
    # pieces of different types overtake each other.
    piece_tags = (Tag.DECODE, Tag.CACHE_OP, Tag.FUSED, Tag.CONTROL)

    #: True while a fusion window's boundary events are in flight.
    in_flight = [False]
    #: ``(future, need_msg)`` the worker parked on mid-window.  Resolved
    #: at window completion if input is already waiting (or
    #: unconditionally for the shutdown flush, ``need_msg=False``);
    #: otherwise re-parked as an arrival watcher, so the worker wakes
    #: exactly once per window, at max(window end, next arrival).
    gate_box = [None]
    gate_label = f"window-gate@{rank}"

    def on_window_done() -> None:
        in_flight[0] = False
        parked = gate_box[0]
        if parked is None:
            return
        gate, need_msg = parked
        gate_box[0] = None
        if not need_msg or ep.iprobe(ANY_SOURCE, piece_tags):
            gate.resolve(None)
        else:
            ep.post_probe(ANY_SOURCE, piece_tags, gate)

    try:
        while True:
            if in_flight[0]:
                gate = kernel.future(gate_label)
                gate_box[0] = (gate, True)
                yield gate
            elif not ep.iprobe(ANY_SOURCE, piece_tags):
                yield from ep.probe(ANY_SOURCE, piece_tags)
            # The piece's sender announced its oldest transaction no later
            # than the piece itself arrived: dispatch that one.
            src = ep.peek(ANY_SOURCE, piece_tags).src
            ttype = ep.take_announcement(src)

            # ---- fusion window: drain this transaction plus every one the same
            # sender has announced by now, in send order, until the window
            # holds ``max_fuse`` runs or ``ridge`` tokens -----------------------
            window: List = []  # FusedRun | List[CacheOp], dispatch order
            n_runs = n_tokens = 0
            shutdown = False
            while True:
                if ttype == TransactionType.SHUTDOWN:
                    yield from recv_piece(ep, src, ttype)
                    shutdown = True
                    break
                if ttype == TransactionType.DECODE:
                    meta = yield from recv_piece(ep, src, ttype)
                    act: Activations = yield from recv_piece(ep, src, ttype)
                    window.append(FusedRun(meta, act))
                    n_runs += 1
                    n_tokens += meta.n_tokens
                elif ttype == TransactionType.CACHE_OP:
                    batch = yield from recv_piece(ep, src, ttype)
                    window.append(batch)
                elif ttype == TransactionType.FUSED:
                    fb: FusedBatch = yield from recv_piece(ep, src, ttype)
                    for item in fb.items:
                        window.append(item)
                        if isinstance(item, FusedRun):
                            n_runs += 1
                            n_tokens += item.meta.n_tokens
                else:  # pragma: no cover - exhaustive enum
                    raise RuntimeError(f"worker {rank}: unknown transaction {ttype}")
                if (
                    n_runs >= max_fuse
                    or (ridge is not None and n_tokens >= ridge)
                    or not ep.announced(src)
                ):
                    break
                ttype = ep.take_announcement(src)

            if window:
                # The window's chunk-boundary sync points run as kernel events;
                # the worker parks (next loop iteration) until the final
                # boundary fires ``on_window_done`` at the exact instant the
                # historical chunk loop finished.
                in_flight[0] = True
                _schedule_window(
                    kernel, ep, window, backend, ws, node, metrics,
                    rank, downstream, head_rank, cancelled, busy,
                    injector, dead, on_window_done,
                )

            if shutdown:
                if in_flight[0]:
                    # Flush: forward the shutdown only once the in-flight
                    # window has completed and sent its records.
                    gate = kernel.future(f"flush-gate@{rank}")
                    gate_box[0] = (gate, False)
                    yield gate
                if downstream is not None:
                    send_shutdown(ep, downstream)
                return
    finally:
        dead[0] = True


def _schedule_window(
    kernel, ep, window, backend, ws, node, metrics,
    rank, downstream, head_rank, cancelled, busy,
    injector, dead, on_done,
) -> None:
    """Schedule one fusion window's evaluation as kernel events.

    The window's timeline is laid out up front: one callback per
    compute-chunk boundary runs the cancellation sync point (the
    between-chunk skip update the paper calls thread synchronization
    points: runs whose cancel has landed drop out), and the final
    boundary performs the stage compute and forwards the records — all at
    exactly the simulated instants the historical in-generator chunk loop
    hit.  ``on_done`` fires at the completion instant (synchronously when
    there is nothing to evaluate and no cache-op apply time); the worker
    process parks once per window instead of resuming at every chunk.

    Every callback is guarded by the worker's ``dead`` flag so a crash
    mid-window abandons the remaining chunks, the compute, and the
    forwards, matching generator close semantics.
    """
    lo, hi = ws.layer_range

    # Build the compute window, marking runs the stage will not evaluate.
    items: List = []          # StageRun | List[CacheOp], dispatch order
    stage_runs: List[StageRun] = []
    n_ops = 0
    for it in window:
        if isinstance(it, FusedRun):
            skip = it.act.cancelled or (
                it.meta.is_speculative and it.meta.run_id in cancelled
            )
            if skip:
                metrics.stats.worker_layer_evals_skipped += hi - lo
            sr = StageRun(it.meta, it.act.hidden, skip=skip)
            items.append(sr)
            stage_runs.append(sr)
        else:
            items.append(it)
            n_ops += len(it)

    op_delay = CACHE_OP_APPLY_TIME * n_ops if n_ops else 0.0
    live = [sr for sr in stage_runs if not sr.skip]

    def send_records(busy_acc: float) -> None:
        """Emit this window's outbound records (at the current instant)."""
        if ws.is_last_stage:
            outs = window_state[0]
            for sr, hidden in zip(stage_runs, outs):
                if sr.skip:
                    payload = LogitsPayload(
                        sr.meta.run_id, [], nbytes=CANCELLED_LOGITS_NBYTES,
                        cancelled=True,
                    )
                else:
                    logits = backend.finalize_logits(ws, sr.meta, hidden)
                    payload = LogitsPayload(
                        sr.meta.run_id, logits,
                        nbytes=backend.logits_nbytes(len(logits)),
                    )
                ep.send(payload, head_rank, Tag.LOGITS, nbytes=payload.nbytes)
        elif downstream is not None:
            outs = window_state[0]
            out_items: List = []
            oi = 0
            for it in items:
                if isinstance(it, StageRun):
                    if it.skip:
                        out = Activations(
                            it.meta.run_id, EMPTY_ACTIVATION_NBYTES, None,
                            cancelled=True,
                        )
                    else:
                        out = Activations(
                            it.meta.run_id,
                            backend.activation_nbytes(it.meta.n_tokens),
                            outs[oi],
                        )
                    out_items.append(FusedRun(it.meta, out))
                    oi += 1
                else:
                    out_items.append(it)
            send_fused(ep, downstream, out_items)
        # One metrics call per window: busy seconds accumulated across
        # chunk and logits delays instead of per-delay calls.
        if busy_acc:
            busy(busy_acc)
        on_done()

    #: ``window_state[0]`` holds the stage outputs between the compute
    #: boundary and the (possibly later) logits-emit boundary.
    window_state: List = [None]

    def finish(busy_acc: float) -> None:
        """End-of-chunks boundary: run the stage compute, then emit."""
        window_state[0] = backend.compute_stage_multi(ws, items)
        if ws.is_last_stage and any(not sr.skip for sr in stage_runs):
            n_want = sum(
                sum(1 for s in sr.meta.slots if s.want_logits)
                for sr in stage_runs if not sr.skip
            )
            t = backend.logits_time(node, n_want)

            def emit() -> None:
                if not dead[0]:
                    send_records(busy_acc + t)

            kernel.call_at(kernel.now + t, emit)
        else:
            send_records(busy_acc)

    if live:
        width = len(live)
        metrics.record_fusion(rank, width)
        if width > 1:
            metrics.stats.fused_batches += 1
            metrics.stats.fused_runs += width
        # One fused stage time for the concatenated batch — weights are
        # streamed once across the window, not once per run.
        chunks = backend.stage_chunks(
            node, ws.layer_range, sum(sr.meta.n_tokens for sr in live)
        )
        if injector is not None:
            factor = injector.stage_time_factor(rank)
            if factor != 1.0:
                chunks = [c * factor for c in chunks]
        if not any(sr.meta.is_speculative for sr in live):
            # No speculative run in the window: cancellation cannot touch
            # it (cancels only ever skip speculative runs), so the
            # between-chunk sync points are no-ops.  Charge the whole
            # window (plus any cache-op apply time) as one boundary.
            total = sum(chunks)

            def whole_window() -> None:
                if not dead[0]:
                    finish(total)

            kernel.call_at(kernel.now + total + op_delay, whole_window)
            return
        # Cache-op apply time rides the first chunk (no observable event
        # sits between them); each boundary drops the runs whose cancel
        # landed while the chunk evaluated.  A cancel mid-fusion splits the
        # batch logically: the run drops out of the computation but keeps
        # its slot in the forwarded record order.
        n_chunks = len(chunks)
        done = [False]
        t = kernel.now + op_delay
        elapsed = 0.0
        for i, chunk in enumerate(chunks):
            t += chunk
            elapsed += chunk

            def boundary(
                remaining: int = n_chunks - (i + 1), elapsed: float = elapsed
            ) -> None:
                if done[0] or dead[0]:
                    return
                for sr in stage_runs:
                    if (
                        not sr.skip
                        and sr.meta.is_speculative
                        and sr.meta.run_id in cancelled
                    ):
                        sr.skip = True
                        metrics.stats.worker_layer_evals_skipped += max(
                            0, (hi - lo) * remaining // max(n_chunks, 1)
                        )
                if remaining == 0 or not any(
                    not sr.skip for sr in stage_runs
                ):
                    # Last chunk done, or whole window cancelled: abandon
                    # any remaining chunks and finish now.
                    done[0] = True
                    finish(elapsed)

            kernel.call_at(t, boundary)
        return

    if op_delay:

        def ops_applied() -> None:
            if not dead[0]:
                finish(0.0)

        kernel.call_at(kernel.now + op_delay, ops_applied)
        return

    finish(0.0)
