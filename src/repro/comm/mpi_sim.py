"""Simulated MPI: buffered sends, blocking receives, probes.

One :class:`Network` exists per simulation; each rank interacts through its
:class:`Endpoint`.  Semantics implemented (and tested against the MPI 4.1
standard's wording):

- **Buffered send**: ``send`` returns control to the caller immediately
  (the reference implementation uses buffered MPI sends so a node can
  proceed before the receiver is ready).  Transmission timing is delegated
  to the cluster's egress :class:`~repro.cluster.interconnect.Link`.
- **Non-overtaking**: messages with the same (src, dst, tag) are received
  in send order, even when the eager lane would deliver a later small
  message earlier.  Out-of-order arrivals are stashed until their
  predecessors arrive.
- **Probe / Iprobe**: check for a matching available message without
  consuming it.
- **Wildcards**: ``ANY_SOURCE`` / ``ANY_TAG`` match the earliest available
  message.
- **Announcements**: a modelled, message-free notice that something of a
  given kind is on its way.  :meth:`Endpoint.announce` stamps it on the
  receiver with the instant an eager marker of the given size would have
  arrived; the receiver asks whether the oldest one from a sender is due
  yet.  The transaction protocol
  (:mod:`repro.comm.transactions`) announces every transaction this way
  instead of sending a start message.

Blocking calls are generators: engine code runs inside kernel processes and
uses ``msg = yield from endpoint.recv(...)``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from repro.cluster.kernel import SimKernel
from repro.cluster.topology import Cluster
from repro.comm.message import ANY_SOURCE, ANY_TAG, Message


def _tag_matches(tag_filter, tag: int) -> bool:
    """True when ``tag`` satisfies a filter: ANY_TAG, an int, or a tuple."""
    if isinstance(tag_filter, (tuple, frozenset, set, list)):
        return tag in tag_filter
    return tag_filter in (ANY_TAG, tag)


class _RecvRequest:
    """A parked receive (or probe) awaiting a matching message."""

    __slots__ = ("source", "tag", "future", "consume")

    def __init__(self, source: int, tag, future, consume: bool) -> None:
        self.source = source
        self.tag = tag
        self.future = future
        self.consume = consume

    def matches(self, msg: Message) -> bool:
        return (self.source in (ANY_SOURCE, msg.src)) and _tag_matches(
            self.tag, msg.tag
        )


class Endpoint:
    """Per-rank communicator handle."""

    def __init__(self, network: "Network", rank: int) -> None:
        self._net = network
        self.rank = rank
        #: Messages available for receiving, in delivery order.
        self._available: Deque[Message] = deque()
        #: Out-of-order stash keyed by (src, tag) -> {seq: msg}.
        self._stash: Dict[Tuple[int, int], Dict[int, Message]] = {}
        #: Next expected sequence number per (src, tag).
        self._expected: Dict[Tuple[int, int], int] = {}
        #: Parked receives/probes in arrival order of the requests.
        self._pending: List[_RecvRequest] = []
        #: Futures resolved on the next delivery of *any* message.
        self._arrival_watchers: List[Any] = []
        #: Available-message count per tag: lets ``iprobe`` answer the
        #: common no-match case in O(1) instead of scanning the deque.
        #: Workers re-probe for cancels between every compute chunk and
        #: heads poll for logits between draft passes, so with fused
        #: dispatch the probe path runs far more often than it matches.
        self._n_avail: Dict[int, int] = {}
        #: Pending announcements per sender, oldest first:
        #: ``(announce_at, kind)``.
        self._announced: Dict[int, Deque[Tuple[float, Any]]] = {}

    # -- sending -------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._net.size

    def send(
        self,
        payload: Any,
        dest: int,
        tag: int,
        nbytes: float,
        eager: bool = False,
    ) -> Message:
        """Buffered send; returns immediately after local buffering.

        Args:
            payload: Python object to deliver.
            dest: destination rank.
            tag: message tag (non-overtaking is per (src, dest, tag)).
            nbytes: modeled wire size; drives link serialization time.
            eager: force the link's eager lane (control signals).
        """
        return self._net._transmit(self.rank, dest, tag, payload, nbytes, eager)

    def announce(self, dest: int, kind: Any, nbytes: float) -> float:
        """Announce ``kind`` to ``dest`` without sending a message.

        The announcement becomes due at the instant an eager ``nbytes``
        message sent now would arrive
        (:meth:`~repro.cluster.interconnect.Link.eager_arrival`), so its
        latency is charged but it costs no delivery event and cannot be
        lost.  Returns that instant.
        """
        net = self._net
        if not 0 <= dest < net.size:
            raise ValueError(f"invalid destination rank {dest}")
        at = net.cluster.link(self.rank, dest).eager_arrival(nbytes)
        announced = net.endpoints[dest]._announced
        fifo = announced.get(self.rank)
        if fifo is None:
            fifo = announced[self.rank] = deque()
        fifo.append((at, kind))
        return at

    # -- receiving -----------------------------------------------------------

    def announced(self, source: int) -> bool:
        """True when the oldest pending announcement from ``source`` is due."""
        fifo = self._announced.get(source)
        return bool(fifo) and fifo[0][0] <= self._net.kernel.now

    def take_announcement(self, source: int) -> Any:
        """Consume the oldest pending announcement from ``source``.

        Due or not: a delivered message that the announcement covers is
        proof enough that it was made.
        """
        return self._announced[source].popleft()[1]

    def recv(
        self, source: int = ANY_SOURCE, tag=ANY_TAG
    ) -> Generator[Any, Any, Message]:
        """Blocking receive (generator).  Use as ``msg = yield from ep.recv()``.

        ``tag`` may be ANY_TAG, a single tag, or a tuple of acceptable tags
        (the receiver-discipline equivalent of posting several receives).
        """
        msg = self._take(source, tag)
        if msg is not None:
            return msg
        fut = self._net.kernel.future(f"recv@{self.rank}")
        fut.detail = ("recv", source, tag, self.rank)
        self._pending.append(_RecvRequest(source, tag, fut, consume=True))
        msg = yield fut
        return msg

    def recv_ready(self, source: int = ANY_SOURCE, tag=ANY_TAG, limit=None):
        """Consume and return every available matching message, in order.

        Non-blocking and not a generator — callable from plain (non-process)
        code.  Returns ``[]`` when nothing matches.  This is the batch half
        of the inbox hand-off: one parked resume wakes the receiver, then a
        single ``recv_ready`` drains the whole same-instant delivery batch
        without further generator steps.
        """
        if not self._available:
            return []
        if (
            tag != ANY_TAG
            and not isinstance(tag, (tuple, frozenset, set, list))
            and not self._n_avail.get(tag)
        ):
            return []
        out: List[Message] = []
        keep: List[Message] = []
        n_avail = self._n_avail
        for msg in self._available:
            if (
                (limit is None or len(out) < limit)
                and (source in (ANY_SOURCE, msg.src))
                and _tag_matches(tag, msg.tag)
            ):
                out.append(msg)
                n_avail[msg.tag] -= 1
            else:
                keep.append(msg)
        if out:
            self._available = deque(keep)
            trace = self._net.trace
            if trace is not None:
                rank = self.rank
                trace.extend(
                    (rank, msg.src, msg.tag, msg.seq) for msg in out
                )
        return out

    def probe(
        self, source: int = ANY_SOURCE, tag=ANY_TAG
    ) -> Generator[Any, Any, Message]:
        """Blocking probe: waits for a match, returns it *without* consuming."""
        msg = self.peek(source, tag)
        if msg is not None:
            return msg
        fut = self._net.kernel.future(f"probe@{self.rank}")
        fut.detail = ("probe", source, tag, self.rank)
        self._pending.append(_RecvRequest(source, tag, fut, consume=False))
        msg = yield fut
        return msg

    def post_probe(self, source: int, tag, fut) -> None:
        """Post a non-consuming probe resolving ``fut`` with the next
        matching delivery — the event-context counterpart of
        :meth:`probe`, for receivers parking on a future from plain
        (non-process) code such as a window-completion callback.  The
        caller must have checked :meth:`iprobe` first: an
        already-available match will not resolve the future.
        """
        self._pending.append(_RecvRequest(source, tag, fut, consume=False))

    def peek(self, source: int = ANY_SOURCE, tag=ANY_TAG) -> Optional[Message]:
        """Non-blocking probe returning the earliest matching available
        message without consuming it, or ``None``."""
        for msg in self._available:
            if (source in (ANY_SOURCE, msg.src)) and _tag_matches(tag, msg.tag):
                return msg
        return None

    def iprobe(self, source: int = ANY_SOURCE, tag=ANY_TAG) -> bool:
        """Non-blocking probe: True when a matching message is available.

        The empty-mailbox and no-message-with-this-tag cases — the vast
        majority of probes — answer from the per-tag counts without
        touching the deque; only a plausible match falls back to the scan.
        """
        if not self._available:
            return False
        if isinstance(tag, (tuple, frozenset, set, list)):
            if all(self._n_avail.get(t, 0) == 0 for t in tag):
                return False
        elif tag != ANY_TAG:
            if self._n_avail.get(tag, 0) == 0:
                return False
            if source == ANY_SOURCE:
                return True
        return self.peek(source, tag) is not None

    # -- internals -----------------------------------------------------------

    def _take(self, source: int, tag) -> Optional[Message]:
        for i, msg in enumerate(self._available):
            if (source in (ANY_SOURCE, msg.src)) and _tag_matches(tag, msg.tag):
                del self._available[i]
                self._n_avail[msg.tag] -= 1
                trace = self._net.trace
                if trace is not None:
                    trace.append((self.rank, msg.src, msg.tag, msg.seq))
                return msg
        return None

    def _deliver(self, msg: Message) -> None:
        """Called by the network at arrival time: enforce ordering, match."""
        key = (msg.src, msg.tag)
        expected = self._expected.get(key, 0)
        reliable = self._net._reliable
        if msg.seq != expected:
            if msg.seq < expected:
                # Stale duplicate: a retransmit raced its original (or a
                # restarted endpoint already advanced past it).  Drop it and
                # re-ack the watermark so the sender stops retransmitting.
                if reliable is not None:
                    reliable.on_accept(msg.src, self.rank, msg.tag, expected)
                return
            # Early arrival (eager lane overtook bulk, or a predecessor was
            # lost): stash until in order.  ``setdefault`` keeps the first
            # copy if a duplicate of a stashed seq arrives.
            self._stash.setdefault(key, {}).setdefault(msg.seq, msg)
            return
        self._make_available(msg)
        # Drain any stashed successors that are now in order.
        stash = self._stash.get(key)
        while stash:
            nxt = self._expected[key]
            msg2 = stash.pop(nxt, None)
            if msg2 is None:
                break
            self._make_available(msg2)
        if reliable is not None:
            reliable.on_accept(msg.src, self.rank, msg.tag, self._expected[key])

    def reset_after_crash(self) -> None:
        """Forget all communication state after the owning rank crashes.

        Pending receives, stashed arrivals, undelivered available
        messages and pending announcements die with the process.  The
        expected sequence numbers jump forward to the *sender-side*
        counters, so every pre-crash in-flight message (including
        retransmits of lost ones) arrives stale, is dropped, and is
        cumulatively re-acked — the sender's retransmit queue
        self-cleans.  Messages sent after the reset are delivered to the
        restarted process in order, as usual.
        """
        self._available.clear()
        self._stash.clear()
        self._pending.clear()
        self._arrival_watchers.clear()
        self._n_avail.clear()
        self._announced.clear()
        net = self._net
        for (src, dst, tag), seq in net._seq.items():
            if dst == self.rank:
                self._expected[(src, tag)] = seq

    def _make_available(self, msg: Message) -> None:
        net = self._net
        key = (msg.src, msg.tag)
        self._expected[key] = msg.seq + 1
        msg.delivered_at = net.kernel.now
        net.n_delivered += 1
        # Hand directly to the oldest matching parked request, if any.
        for i, req in enumerate(self._pending):
            if req.matches(msg):
                del self._pending[i]
                if not req.consume:
                    self._available.append(msg)
                    self._n_avail[msg.tag] = self._n_avail.get(msg.tag, 0) + 1
                elif net.trace is not None:
                    net.trace.append((self.rank, msg.src, msg.tag, msg.seq))
                req.future.resolve(msg)
                self._notify_watchers()
                return
        self._available.append(msg)
        self._n_avail[msg.tag] = self._n_avail.get(msg.tag, 0) + 1
        self._notify_watchers()

    def _notify_watchers(self) -> None:
        watchers, self._arrival_watchers = self._arrival_watchers, []
        for fut in watchers:
            if not fut.resolved:
                fut.resolve(True)


class Network:
    """All endpoints plus the cluster links; one per simulation."""

    def __init__(self, kernel: SimKernel, cluster: Cluster) -> None:
        self.kernel = kernel
        self.cluster = cluster.bind(kernel)
        self.size = cluster.size
        self.endpoints = [Endpoint(self, r) for r in range(self.size)]
        #: Sender-side sequence counters per (src, dst, tag).
        self._seq: Dict[Tuple[int, int, int], int] = {}
        #: Optional reliability layer (ack + retransmit watchdogs).  Stays
        #: ``None`` unless a fault plan installs one, so the no-fault hot
        #: path pays a single attribute check per send/delivery.
        self._reliable: Optional[Any] = None
        #: Aggregate statistics.
        self.n_sent = 0
        self.bytes_sent = 0.0
        #: Messages made available to receivers in order (stale duplicates
        #: and still-stashed arrivals excluded).  The serving benchmark
        #: divides the kernel's resume counter by this to gate the
        #: resumes-per-delivered-message ratio.
        self.n_delivered = 0
        #: Optional consumption-order trace: when set to a list, every
        #: message an application-level receive consumes appends
        #: ``(rank, src, tag, seq)``.  The consumption-order golden suite
        #: pins this sequence.
        self.trace: Optional[List[Tuple[int, int, int, int]]] = None

    def endpoint(self, rank: int) -> Endpoint:
        return self.endpoints[rank]

    def _transmit(
        self, src: int, dst: int, tag: int, payload: Any, nbytes: float, eager: bool
    ) -> Message:
        if not 0 <= dst < self.size:
            raise ValueError(f"invalid destination rank {dst}")
        key = (src, dst, tag)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        msg = Message(
            src=src,
            dst=dst,
            tag=tag,
            payload=payload,
            nbytes=nbytes,
            seq=seq,
            sent_at=self.kernel.now,
        )
        self.n_sent += 1
        self.bytes_sent += nbytes
        link = self.cluster.link(src, dst)
        link.transmit(nbytes, (self.endpoints[dst], msg), eager_hint=eager)
        if self._reliable is not None:
            self._reliable.on_send(msg, nbytes, eager)
        return msg
