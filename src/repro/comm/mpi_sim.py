"""Simulated MPI: buffered sends, non-blocking receives, delivery listeners.

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

Nothing here blocks.  Receivers are event-driven state machines: they take
what is available (:meth:`Endpoint.try_recv`, :meth:`Endpoint.recv_ready`)
and otherwise arm a **delivery listener** (:meth:`Endpoint.listen`), a
callback the endpoint runs at the delivery of the next matching message,
inside the delivery event, after the ordering rules above have released
it.  A consuming listener takes the message at delivery, as a receive
parked on it would; a non-consuming one leaves it available, as a probe
would.  A listener that needs to act at the instant's end (as a resumed
receiver would) defers itself with an at-now kernel event.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.cluster.kernel import SimKernel
from repro.cluster.topology import Cluster
from repro.comm.message import ANY_SOURCE, ANY_TAG, Message


def _tag_matches(tag_filter, tag: int) -> bool:
    """True when ``tag`` satisfies a filter: ANY_TAG, a tag, or a tuple of tags."""
    if tag_filter.__class__ is tuple:
        return tag in tag_filter
    return tag_filter == ANY_TAG or tag_filter == tag


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
        #: Delivery listeners by tag: ``(fn, source, consume, standing,
        #: tags)``; a listener on several tags is stored under each.
        self._listeners: Dict[int, Tuple[Callable, int, bool, bool, tuple]] = {}
        #: Futures resolved on the next delivery of *any* message.
        self._arrival_watchers: List[Any] = []
        #: Available-message count per tag: lets ``iprobe`` and
        #: ``try_recv`` answer the common no-match case in O(1) instead of
        #: scanning the deque.  The head probes for logits after every
        #: draft round and a worker probes for its next transaction after
        #: every window, so the probe path runs far more often than it
        #: matches.
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

    def try_recv(self, source: int = ANY_SOURCE, tag=ANY_TAG) -> Optional[Message]:
        """Non-blocking receive: consume and return the earliest matching
        available message, or ``None``."""
        single = tag.__class__ is not tuple and tag != ANY_TAG
        if not self._available or (single and not self._n_avail.get(tag)):
            return None
        for i, msg in enumerate(self._available):
            if (msg.tag == tag if single else _tag_matches(tag, msg.tag)) and (
                source == ANY_SOURCE or source == msg.src
            ):
                del self._available[i]
                self._n_avail[msg.tag] -= 1
                trace = self._net.trace
                if trace is not None:
                    trace.append((self.rank, msg.src, msg.tag, msg.seq))
                return msg
        return None

    def listen(
        self,
        tag,
        fn: Callable[[Message], None],
        source: int = ANY_SOURCE,
        consume: bool = False,
        standing: bool = False,
    ) -> None:
        """Run ``fn(msg)`` at the delivery of the next message on ``tag``.

        ``tag`` is one tag or a tuple of tags (not ``ANY_TAG``); a message
        from another sender than ``source`` passes the listener by.  The
        listener fires inside the delivery event, once non-overtaking and
        the early-arrival stash have released the message, and before the
        arrival watchers are notified:

        - ``consume``: the listener takes the message, which never becomes
          available, and the consumption trace records it at delivery —
          a receive parked on the message.  Otherwise the message is made
          available first and stays so — a probe.
        - ``standing``: the listener stays armed for every later delivery
          until :meth:`unlisten`; otherwise it fires once, and all of its
          tags are disarmed together.

        Messages already available do not fire a listener: check with
        :meth:`try_recv` or :meth:`iprobe` first.  Each tag holds at most
        one listener.  A crash (:meth:`reset_after_crash`) disarms all.
        """
        tags = tag if tag.__class__ is tuple else (tag,)
        if ANY_TAG in tags:
            raise ValueError("a listener needs explicit tags, not ANY_TAG")
        listeners = self._listeners
        entry = (fn, source, consume, standing, tags)
        for i, t in enumerate(tags):
            if listeners.setdefault(t, entry) is not entry:
                for armed in tags[:i]:
                    del listeners[armed]
                raise ValueError(f"rank {self.rank}: tag {t} already has a listener")

    def unlisten(self, tag) -> None:
        """Disarm the listener on ``tag`` (and its other tags), if any."""
        entry = self._listeners.get(tag)
        if entry is not None:
            for t in entry[4]:
                del self._listeners[t]

    def recv_ready(self, source: int = ANY_SOURCE, tag=ANY_TAG) -> List[Message]:
        """Consume and return every available matching message, in order.

        Returns ``[]`` when nothing matches.  This is the batch half of
        the inbox hand-off: one wake-up of the receiver, then a single
        ``recv_ready`` drains the whole same-instant delivery batch.
        """
        if not self._available or (
            tag.__class__ is not tuple and tag != ANY_TAG and not self._n_avail.get(tag)
        ):
            return []
        out: List[Message] = []
        keep: List[Message] = []
        n_avail = self._n_avail
        for msg in self._available:
            if (source == ANY_SOURCE or source == msg.src) and _tag_matches(tag, msg.tag):
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

    def peek(self, source: int = ANY_SOURCE, tag=ANY_TAG) -> Optional[Message]:
        """Non-blocking probe returning the earliest matching available
        message without consuming it, or ``None``."""
        for msg in self._available:
            if (source in (ANY_SOURCE, msg.src)) and _tag_matches(tag, msg.tag):
                return msg
        return None

    def iprobe(self, source: int = ANY_SOURCE, tag=ANY_TAG) -> bool:
        """Non-blocking probe: True when a matching message is available.

        The empty-mailbox and no-message-with-these-tags cases — the vast
        majority of probes — answer from the per-tag counts without
        touching the deque, and so does any match from ``ANY_SOURCE``;
        only a source filter over a plausible match falls back to the scan.
        """
        if not self._available:
            return False
        if tag != ANY_TAG:
            n_avail = self._n_avail
            if tag.__class__ is tuple:
                for t in tag:
                    if n_avail.get(t):
                        break
                else:
                    return False
            elif not n_avail.get(tag):
                return False
            if source == ANY_SOURCE:
                return True
        return self.peek(source, tag) is not None

    # -- internals -----------------------------------------------------------

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
        self._make_available(msg, key)
        # Drain any stashed successors that are now in order.
        stash = self._stash.get(key)
        while stash:
            nxt = self._expected[key]
            msg2 = stash.pop(nxt, None)
            if msg2 is None:
                break
            self._make_available(msg2, key)
        if reliable is not None:
            reliable.on_accept(msg.src, self.rank, msg.tag, self._expected[key])

    def reset_after_crash(self) -> None:
        """Forget all communication state after the owning rank crashes.

        Listeners, stashed arrivals, undelivered available messages and
        pending announcements die with the process.  The
        expected sequence numbers jump forward to the *sender-side*
        counters, so every pre-crash in-flight message (including
        retransmits of lost ones) arrives stale, is dropped, and is
        cumulatively re-acked — the sender's retransmit queue
        self-cleans.  Messages sent after the reset are delivered to the
        restarted process in order, as usual.
        """
        self._available.clear()
        self._stash.clear()
        self._listeners.clear()
        self._arrival_watchers.clear()
        self._n_avail.clear()
        self._announced.clear()
        net = self._net
        for (src, dst, tag), seq in net._seq.items():
            if dst == self.rank:
                self._expected[(src, tag)] = seq

    def _make_available(self, msg: Message, key: Tuple[int, int]) -> None:
        """Release the in-order message of stream ``key``: to its listener,
        else into the mailbox; then wake the arrival watchers."""
        net = self._net
        self._expected[key] = msg.seq + 1
        msg.delivered_at = net.kernel.now
        net.n_delivered += 1
        tag = msg.tag
        listener = self._listeners.get(tag)
        if listener is not None and listener[1] in (ANY_SOURCE, msg.src):
            fn, _, consume, standing, tags = listener
            if not standing:
                for t in tags:
                    del self._listeners[t]
            if not consume:
                self._available.append(msg)
                self._n_avail[tag] = self._n_avail.get(tag, 0) + 1
            elif net.trace is not None:
                net.trace.append((self.rank, msg.src, tag, msg.seq))
            fn(msg)
        else:
            self._available.append(msg)
            self._n_avail[tag] = self._n_avail.get(tag, 0) + 1
        if self._arrival_watchers:
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
        msg = Message(src, dst, tag, payload, nbytes, seq, self.kernel.now)
        self.n_sent += 1
        self.bytes_sent += nbytes
        link = self.cluster.link(src, dst)
        link.transmit(nbytes, (self.endpoints[dst], msg), eager_hint=eager)
        if self._reliable is not None:
            self._reliable.on_send(msg, nbytes, eager)
        return msg
