"""The pipeline worker: it runs every target stage of every engine.

No head evaluates a stage; a baseline's head shares rank 0 with the first
stage's worker and feeds it over the rank's zero-cost loopback link.

A worker rank is an event-driven state machine over its mailbox, woken
by delivery listeners (:meth:`~repro.comm.mpi_sim.Endpoint.listen`) and
by its own windows' completion:

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
from repro.comm.payloads import Activations, FusedRun, LogitsPayload
from repro.comm.transactions import (
    TransactionType,
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

    The worker runs as an event-driven state machine (:class:`_Worker`),
    like the serving head: delivery listeners on its endpoint and the
    completion of its fusion windows drive every step, and the process
    parks once, on a done future that the relayed shutdown resolves.

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
    worker = _Worker(
        net, rank, upstream, downstream, head_rank, backend, ws, node,
        metrics, max_fuse, injector,
    )
    try:
        worker.start()
        if not worker.done.resolved:
            yield worker.done
    finally:
        # A crash closes the generator: window callbacks and deferred
        # re-entries still scheduled on the kernel become no-ops, so the
        # worker stops computing and sending mid-window.
        worker.dead = True


#: Tags the payload pieces of a transaction travel on.
PIECE_TAGS = (Tag.DECODE, Tag.CACHE_OP, Tag.FUSED, Tag.CONTROL)


class _Worker:
    """One pipeline rank's state machine.

    Receiver discipline: the worker wakes on payload *pieces*; cancels
    never wake the reader (a standing listener, :meth:`relay`, takes
    them).  Start markers are announcements, not messages: a delivered
    piece proves its sender announced the transaction, and the sender's
    announcement FIFO, oldest first, still sequences dispatch when pieces
    of different types overtake each other.

    Every re-entry a delivery or a window completion causes is deferred
    with an at-now kernel event, in the FIFO slot a resumed receive would
    take, so the worker acts only after the current event has made its
    whole delivery batch available.  A piece the worker already waits for
    is taken at its delivery by a consuming listener, as a parked receive
    would take it.
    """

    __slots__ = (
        "ep", "kernel", "rank", "upstream", "downstream", "head_rank",
        "backend", "ws", "node", "metrics", "max_fuse", "injector",
        "ridge", "cancelled", "dead", "done", "idle_detail", "window_detail",
        # The transaction read in progress: its type, the window it fills
        # (``FusedRun | List[CacheOp]``, dispatch order), the window's run
        # and token counts, a DECODE's meta piece while its activations
        # are on the way, and the piece a consuming listener took.
        "ttype", "window", "n_runs", "n_tokens", "meta", "got",
        # True while a fusion window's boundary events are in flight, and
        # what is due when it completes: ``"read"`` the next transaction
        # (once a piece is waiting), ``"flush"`` the shutdown, or None.
        "in_flight", "parked",
    )

    def __init__(
        self, net, rank, upstream, downstream, head_rank, backend, ws, node,
        metrics, max_fuse, injector,
    ) -> None:
        self.ep = net.endpoint(rank)
        self.kernel = net.kernel
        self.rank = rank
        self.upstream = upstream
        self.downstream = downstream
        self.head_rank = head_rank
        self.backend = backend
        self.ws = ws
        self.node = node
        self.metrics = metrics
        self.max_fuse = max_fuse
        self.injector = injector
        #: Token budget of one fusion window: the stage's roofline ridge.
        self.ridge = backend.fusion_ridge(node, ws.layer_range)
        self.cancelled: Set[int] = set()
        #: Set at shutdown and by a crash.
        self.dead = False
        #: The one future the process parks on.  Its ``detail`` names what
        #: the worker waits for, which
        #: :class:`~repro.cluster.kernel.StuckSimulationError` reports.
        self.done = self.kernel.future(f"worker-done@{rank}")
        self.idle_detail = ("probe", ANY_SOURCE, PIECE_TAGS, rank)
        self.window_detail = f"fusion window in flight at rank {rank}"
        self.ttype = None
        self.window: List = []
        self.n_runs = self.n_tokens = 0
        self.meta = None
        self.got = None
        self.in_flight = False
        self.parked = None

    def start(self) -> None:
        ep = self.ep
        # Cancels that landed while this rank was down wait in its mailbox.
        for cmsg in ep.recv_ready(ANY_SOURCE, Tag.CANCEL):
            self.relay(cmsg)
        ep.listen(Tag.CANCEL, self.relay, consume=True, standing=True)
        self.next_transaction()

    def relay(self, cmsg) -> None:
        """Record a cancel and relay it upstream, at its arrival.

        Runs at each cancel's delivery, busy window or not, so a signal
        crosses a busy stage in one hop instead of waiting for that
        stage's next chunk boundary.  The skip decision still waits for a
        sync point: window callbacks read ``cancelled`` there.
        """
        run_id = cmsg.payload.run_id
        if run_id in self.cancelled:
            return
        self.cancelled.add(run_id)
        # Back-propagate toward earlier stages (IV-D2).  The first target
        # stage's upstream is the head, which originated it.
        if self.upstream != self.head_rank:
            send_cancel(self.ep, self.upstream, run_id)

    # -- waiting -------------------------------------------------------------

    def on_piece(self, _msg) -> None:
        self.kernel.defer(self.begin)

    def on_recv(self, msg) -> None:
        self.got = msg
        self.kernel.defer(self.resume_read)

    def wait_for_piece(self) -> None:
        self.done.detail = self.idle_detail
        self.ep.listen(PIECE_TAGS, self.on_piece)

    def next_transaction(self) -> None:
        if self.in_flight:
            self.parked = "read"
            self.done.detail = self.window_detail
        elif self.ep.iprobe(ANY_SOURCE, PIECE_TAGS):
            self.begin()
        else:
            self.wait_for_piece()

    def on_window_done(self) -> None:
        """The window sent its records: re-enter at once for the shutdown
        flush, else at max(window end, next piece)."""
        self.in_flight = False
        parked = self.parked
        if parked is None:
            return
        self.parked = None
        if parked == "flush":
            self.kernel.defer(self.shut_down)
        elif self.ep.iprobe(ANY_SOURCE, PIECE_TAGS):
            self.kernel.defer(self.begin)
        else:
            self.wait_for_piece()

    # -- reading -------------------------------------------------------------

    def begin(self) -> None:
        """Dispatch the upstream's oldest announced transaction: a waiting
        piece proves it was announced no later than the piece arrived.
        Pieces only ever come from the upstream neighbor."""
        if self.dead:
            return
        self.ttype = self.ep.take_announcement(self.upstream)
        self.window = []
        self.n_runs = self.n_tokens = 0
        self.read()

    def resume_read(self) -> None:
        if not self.dead:
            self.read()

    def piece(self):
        """The current transaction's next piece, or None when it has not
        landed: a consuming listener then takes it at its delivery and
        re-enters :meth:`read`."""
        msg = self.got
        if msg is not None:
            self.got = None
            return msg
        msg = self.ep.try_recv(self.upstream, self.ttype)
        if msg is None:
            self.done.detail = ("recv", self.upstream, int(self.ttype), self.rank)
            self.ep.listen(self.ttype, self.on_recv, source=self.upstream, consume=True)
        return msg

    def read(self) -> None:
        """Fusion window: read this transaction plus every one the same
        sender has announced by now, in send order, until the window holds
        ``max_fuse`` runs or ``ridge`` tokens."""
        ep, window, ridge = self.ep, self.window, self.ridge
        while True:
            ttype = self.ttype
            if ttype == TransactionType.DECODE:
                meta = self.meta
                if meta is None:
                    msg = self.piece()
                    if msg is None:
                        return
                    self.meta = meta = msg.payload
                msg = self.piece()
                if msg is None:
                    return
                self.meta = None
                window.append(FusedRun(meta, msg.payload))
                self.n_runs += 1
                self.n_tokens += meta.n_tokens
            elif ttype == TransactionType.FUSED:
                msg = self.piece()
                if msg is None:
                    return
                items = msg.payload.items
                window.extend(items)
                for item in items:
                    if item.__class__ is FusedRun:
                        self.n_runs += 1
                        self.n_tokens += item.meta.n_tokens
            elif ttype == TransactionType.CACHE_OP:
                msg = self.piece()
                if msg is None:
                    return
                window.append(msg.payload)
            elif ttype == TransactionType.SHUTDOWN:
                if self.piece() is None:
                    return
                self.close_window(shutdown=True)
                return
            else:  # pragma: no cover - exhaustive enum
                raise RuntimeError(f"worker {self.rank}: unknown transaction {ttype}")
            if (
                self.n_runs >= self.max_fuse
                or (ridge is not None and self.n_tokens >= ridge)
                or not ep.announced(self.upstream)
            ):
                break
            self.ttype = ep.take_announcement(self.upstream)
        self.close_window(shutdown=False)

    def close_window(self, shutdown: bool) -> None:
        if self.window:
            # The window's chunk-boundary sync points run as kernel events;
            # the final boundary calls ``on_window_done`` at the exact
            # instant the stage finishes.
            self.in_flight = True
            _schedule_window(self, self.window)
        if not shutdown:
            self.next_transaction()
        elif self.in_flight:
            # Flush: forward the shutdown only once the in-flight window
            # has completed and sent its records.
            self.parked = "flush"
            self.done.detail = self.window_detail
        else:
            self.shut_down()

    def shut_down(self) -> None:
        if self.dead:
            return
        self.dead = True
        self.ep.unlisten(Tag.CANCEL)
        if self.downstream is not None:
            send_shutdown(self.ep, self.downstream)
        self.done.resolve(None)


def _schedule_window(w: _Worker, window: List) -> None:
    """Schedule one fusion window's evaluation as kernel events.

    The window's timeline is laid out up front: one event per
    compute-chunk boundary runs the cancellation sync point (the
    between-chunk skip update the paper calls thread synchronization
    points: runs whose cancel has landed drop out), and the final
    boundary performs the stage compute and forwards the records — all at
    exactly the simulated instants a chunk-by-chunk loop would hit.
    ``w.on_window_done`` fires at the completion instant (synchronously
    when there is nothing to evaluate and no cache-op apply time).

    Every callback checks the worker's ``dead`` flag, so a crash
    mid-window abandons the remaining chunks, the compute, and the
    forwards.
    """
    kernel, ws, backend, metrics = w.kernel, w.ws, w.backend, w.metrics
    cancelled = w.cancelled
    lo, hi = ws.layer_range

    # Build the compute window, marking runs the stage will not evaluate.
    items: List = []          # StageRun | List[CacheOp], dispatch order
    stage_runs: List[StageRun] = []
    n_ops = n_live = live_tokens = 0
    any_spec = False
    for it in window:
        if it.__class__ is FusedRun:
            meta = it.meta
            skip = it.act.cancelled or (
                meta.is_speculative and meta.run_id in cancelled
            )
            if skip:
                metrics.stats.worker_layer_evals_skipped += hi - lo
            else:
                n_live += 1
                live_tokens += meta.n_tokens
                any_spec = any_spec or meta.is_speculative
            sr = StageRun(meta, it.act.hidden, skip=skip)
            items.append(sr)
            stage_runs.append(sr)
        else:
            items.append(it)
            n_ops += len(it)

    op_delay = CACHE_OP_APPLY_TIME * n_ops if n_ops else 0.0
    #: The stage outputs, between the compute boundary and the (possibly
    #: later) logits-emit boundary.
    outs = None

    def send_records(busy_acc: float) -> None:
        """Emit this window's outbound records (at the current instant)."""
        ep = w.ep
        if ws.is_last_stage:
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
                ep.send(payload, w.head_rank, Tag.LOGITS, nbytes=payload.nbytes)
        elif w.downstream is not None:
            out_items: List = []
            oi = 0
            for it in items:
                if it.__class__ is StageRun:
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
            send_fused(ep, w.downstream, out_items)
        # One metrics call per window: busy seconds accumulated across
        # chunk and logits delays instead of per-delay calls.
        if busy_acc:
            metrics.add_busy(w.rank, busy_acc)
        w.on_window_done()

    def finish(busy_acc: float) -> None:
        """End-of-chunks boundary: run the stage compute, then emit."""
        nonlocal outs
        outs = backend.compute_stage_multi(ws, items)
        if ws.is_last_stage and any(not sr.skip for sr in stage_runs):
            n_want = sum(
                sum(1 for s in sr.meta.slots if s.want_logits)
                for sr in stage_runs if not sr.skip
            )
            t = backend.logits_time(w.node, n_want)

            def emit() -> None:
                if not w.dead:
                    send_records(busy_acc + t)

            kernel.call_at(kernel.now + t, emit)
        else:
            send_records(busy_acc)

    if n_live:
        metrics.record_fusion(w.rank, n_live)
        if n_live > 1:
            metrics.stats.fused_batches += 1
            metrics.stats.fused_runs += n_live
        # One fused stage time for the concatenated batch — weights are
        # streamed once across the window, not once per run.
        chunks = backend.stage_chunks(w.node, ws.layer_range, live_tokens)
        if w.injector is not None:
            factor = w.injector.stage_time_factor(w.rank)
            if factor != 1.0:
                chunks = [c * factor for c in chunks]
        if not any_spec:
            # No speculative run in the window: cancellation cannot touch
            # it (cancels only ever skip speculative runs), so the
            # between-chunk sync points are no-ops.  Charge the whole
            # window (plus any cache-op apply time) as one boundary.
            total = sum(chunks)

            def whole_window() -> None:
                if not w.dead:
                    finish(total)

            kernel.call_at(kernel.now + total + op_delay, whole_window)
            return
        # Cache-op apply time rides the first chunk (no observable event
        # sits between them); each boundary drops the runs whose cancel
        # landed while the chunk evaluated.  A cancel mid-fusion splits the
        # batch logically: the run drops out of the computation but keeps
        # its slot in the forwarded record order.  One callback serves
        # every boundary: they fire in schedule order, so a counter says
        # which chunk just ended.
        n_chunks = len(chunks)
        elapsed_at: List[float] = []
        n_ended = 0

        def boundary() -> None:
            nonlocal n_ended
            if n_ended == n_chunks or w.dead:
                return
            elapsed = elapsed_at[n_ended]
            n_ended += 1
            remaining = n_chunks - n_ended
            for sr in stage_runs:
                if (
                    not sr.skip
                    and sr.meta.is_speculative
                    and sr.meta.run_id in cancelled
                ):
                    sr.skip = True
                    metrics.stats.worker_layer_evals_skipped += max(
                        0, (hi - lo) * remaining // n_chunks
                    )
            if remaining == 0 or not any(not sr.skip for sr in stage_runs):
                # Last chunk done, or whole window cancelled: abandon any
                # remaining chunks and finish now.
                n_ended = n_chunks
                finish(elapsed)

        t = kernel.now + op_delay
        elapsed = 0.0
        for chunk in chunks:
            t += chunk
            elapsed += chunk
            elapsed_at.append(elapsed)
            kernel.call_at(t, boundary)
        return

    if op_delay:

        def ops_applied() -> None:
            if not w.dead:
                finish(0.0)

        kernel.call_at(kernel.now + op_delay, ops_applied)
        return

    finish(0.0)
