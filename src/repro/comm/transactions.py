"""PipeInfer's ordered transaction protocol (paper Fig. 2).

A *transaction* is an atomic pipeline operation: a start marker announcing
the transaction type, followed by the operation's payload messages on the
type's own tag.  Because MPI point-to-point messages are non-overtaking per
(sender, receiver, tag), and because each receiver processes transactions
serially — take the next announced type, invoke the type's handler, which
receives exactly the payloads of that transaction — pipeline operations
execute in a deterministic order on every node.

The start marker is modelled, not sent.  :func:`send_transaction` records
an *announcement* on the receiver
(:meth:`~repro.comm.mpi_sim.Endpoint.announce`): the type plus the instant
the 16-byte eager marker would have arrived.  Only the payload pieces
travel, still on the type's tag, so every piece carries its type.  The
receiver keeps one announcement FIFO per sender, in send order:

- ``Endpoint.take_announcement(src)`` pops the oldest one — the type of
  the next transaction to dispatch.  A delivered piece proves its
  transaction was announced, so a receiver woken by a piece never waits
  for the marker.
- ``Endpoint.announced(src)`` says whether the oldest one is due, i.e.
  whether the marker would have arrived by now.  Fusion windows use it to
  decide whether to wait for one more transaction.

The marker's latency is still charged, but it costs no message, no
delivery event and no ack, and it cannot be lost.

This module is also the one place each transaction kind is built, sized
and sent.  The head and the pipeline workers call the same sender per
kind, so a change to a kind's wire form is made once:

- :func:`send_decode` — the prefill's DECODE transaction, two pieces
  (meta, then activations);
- :func:`send_fused` — a FUSED window of runs and cache-op batches: the
  head's dispatch burst and every worker's forwarded window;
- :func:`send_cache_ops` — an eager CACHE_OP batch;
- :func:`send_shutdown` — the eager SHUTDOWN, sent by the head and relayed
  by every worker;
- :func:`send_cancel` — a cancel signal on :attr:`Tag.CANCEL` (not a
  transaction: it races the pipeline on the eager lane), sent by the head
  into the last stage and relayed by workers toward the first.

Control payload sizes are class constants of their payload types
(:class:`~repro.comm.payloads.CacheOp`, ``CancelMsg``, ``ShutdownMsg``);
a decode run's size is the sum of its meta and activation sizes, which
the head stamps when it builds the run.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, List, Sequence, Tuple

from repro.comm.message import Tag
from repro.comm.mpi_sim import Endpoint
from repro.comm.payloads import (
    Activations,
    CacheOp,
    CancelMsg,
    DecodeMeta,
    FusedBatch,
    FusedRun,
    ShutdownMsg,
)


class TransactionType(enum.IntEnum):
    """Transaction types; values double as the payload tag."""

    DECODE = Tag.DECODE
    CACHE_OP = Tag.CACHE_OP
    SHUTDOWN = Tag.CONTROL
    #: A fused window: one payload piece (a
    #: :class:`~repro.comm.payloads.FusedBatch`) carrying several decode
    #: runs and interleaved cache-op batches in dispatch order.  Heads
    #: emit them as dispatch *bursts* (a whole round of runs coalesced at
    #: the first hop — capped at ``max_fused_runs`` runs and the
    #: pipeline's smallest fusion ridge in tokens per transaction); workers
    #: fuse what waits in their mailbox, up to their own ridge, and forward
    #: the window as one transaction so downstream stages pay one dispatch per window
    #: instead of one per run.
    FUSED = Tag.FUSED


#: Modeled wire size of a transaction-start marker (type id + header).
START_NBYTES = 16.0


def send_transaction(
    ep: Endpoint,
    dest: int,
    ttype: TransactionType,
    pieces: Sequence[Tuple[Any, float]],
    eager: bool = False,
) -> None:
    """Announce a transaction, then send its payload pieces.

    Args:
        ep: sender endpoint.
        dest: destination rank.
        ttype: transaction type; its value is the tag for all pieces.
        pieces: (payload, nbytes) tuples sent in order on the type's tag.
        eager: route every piece through the link's eager lane (used for
            small control transactions so they are not delayed behind bulk
            activation transfers).
    """
    ep.announce(dest, ttype, START_NBYTES)
    tag = int(ttype)
    for payload, nbytes in pieces:
        ep.send(payload, dest, tag, nbytes=nbytes, eager=eager)


def send_decode(ep: Endpoint, dest: int, meta: DecodeMeta, act: Activations) -> None:
    """One run as a DECODE transaction: the meta piece, then the activations."""
    send_transaction(
        ep, dest, TransactionType.DECODE, [(meta, meta.nbytes), (act, act.nbytes)]
    )


def send_fused(ep: Endpoint, dest: int, items: List) -> None:
    """One FUSED transaction carrying an ordered window.

    ``items`` holds :class:`FusedRun` entries and plain ``List[CacheOp]``
    batches in dispatch order.  The window's size is the sum over its
    runs of meta plus activation bytes, plus every cache op's bytes.  The
    batch takes ``items`` by reference; callers start a new list.
    """
    nbytes = 0.0
    for item in items:
        if item.__class__ is FusedRun:
            nbytes += item.meta.nbytes + item.act.nbytes
        else:
            nbytes += CacheOp.nbytes * len(item)
    send_transaction(
        ep, dest, TransactionType.FUSED, [(FusedBatch(items, nbytes), nbytes)]
    )


def send_cache_ops(ep: Endpoint, dest: int, ops: Sequence[CacheOp]) -> None:
    """One eager CACHE_OP transaction carrying a batch of commands.

    The batch travels as a single piece (a copy of ``ops``), so the
    receiving handler consumes one message per transaction whatever the
    command count.  An empty batch sends nothing.
    """
    if not ops:
        return
    batch = list(ops)
    send_transaction(
        ep, dest, TransactionType.CACHE_OP, [(batch, CacheOp.nbytes * len(batch))],
        eager=True,
    )


def send_shutdown(ep: Endpoint, dest: int) -> None:
    """One eager SHUTDOWN transaction."""
    send_transaction(
        ep, dest, TransactionType.SHUTDOWN, [(ShutdownMsg(), ShutdownMsg.nbytes)],
        eager=True,
    )


def send_cancel(ep: Endpoint, dest: int, run_id: int) -> None:
    """Cancel signal for ``run_id`` on its own tag, on the eager lane."""
    ep.send(CancelMsg(run_id), dest, Tag.CANCEL, nbytes=CancelMsg.nbytes, eager=True)


def recv_piece(ep: Endpoint, source: int, ttype: TransactionType) -> Generator[Any, Any, Any]:
    """Receive one payload piece of an in-progress transaction."""
    msg = yield from ep.recv(source, int(ttype))
    return msg.payload
