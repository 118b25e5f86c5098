"""Interconnect link models.

A directed link between two nodes transmits messages with:

``arrival = departure + latency + bytes / bandwidth``

subject to *serialization*: a link carries one bulk message at a time, so
back-to-back sends queue (this is what creates the interconnect bandwidth
pressure the paper observes on Gigabit Ethernet).

MPI implementations send small messages *eagerly* — they are buffered at
the sender and do not wait behind an in-progress rendezvous transfer of a
large tensor.  PipeInfer's cancellation signals are single-integer messages
whose usefulness depends on racing ahead of bulk activation traffic, so the
link model provides an **eager lane**: payloads below ``eager_threshold``
bypass the bulk serialization queue (paying latency plus their own
serialization only).  Ordering within one (source, destination, tag) stream
is still enforced by the MPI layer on top (non-overtaking), matching the
MPI standard's guarantee.

Delivery is *coalesced*: all messages on one link that arrive at the same
simulated instant (equal-sized records a window sends together, such as the
last stage's logits records or a burst of cancel signals) are drained by a
single kernel event instead of one ``call_at`` per message.  Within one
instant and one link, callbacks fire in transmit order — the same order the
per-message events fired in — so per-stream delivery order is unchanged.

A pending entry is either an ``(endpoint, message)`` pair (network
traffic), handed to :meth:`~repro.comm.mpi_sim.Endpoint._deliver`, or a
raw callback (reliability-layer acks, retransmits, benchmarks), which is
called.  The drain fires both kinds in one transmit-order pass, so a
callback never overtakes a message queued ahead of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.kernel import SimKernel
from repro.util.units import Gbps, KiB, us


@dataclass(frozen=True)
class LinkSpec:
    """Static description of an interconnect technology.

    Attributes:
        name: catalog name used in reports.
        latency: one-way small-message latency in seconds, including the
            software (MPI + transport) overhead measured on such fabrics.
        bandwidth: sustained point-to-point bandwidth, bytes/s.
        eager_threshold: messages at or below this size (bytes) use the
            eager lane and skip the bulk serialization queue.
    """

    name: str
    latency: float
    bandwidth: float
    eager_threshold: float = 32 * KiB


#: Gigabit Ethernet with TCP-based MPI: ~60us end-to-end small-message
#: latency, 125 MB/s line rate.  Clusters A and B.
GIGABIT_ETHERNET = LinkSpec("Gigabit Ethernet", latency=60 * us, bandwidth=Gbps(1))

#: InfiniBand EDR (100 Gb/s), verbs MPI: ~1.5us latency.  Cluster C.
INFINIBAND_EDR = LinkSpec("InfiniBand EDR 100Gb/s", latency=1.5 * us, bandwidth=Gbps(100))

#: InfiniBand QDR (40 Gb/s): ~2us latency.  GPU testbed.
INFINIBAND_QDR = LinkSpec("InfiniBand QDR 40Gb/s", latency=2.0 * us, bandwidth=Gbps(40))

#: Zero-cost link used by single-node execution and unit tests.
LOOPBACK = LinkSpec("loopback", latency=0.0, bandwidth=float("inf"), eager_threshold=float("inf"))


class Link:
    """A directed transmission channel with bandwidth serialization.

    One ``Link`` instance models the sender-side egress of a node toward one
    neighbor.  Bulk messages serialize FIFO; eager messages bypass the bulk
    queue.  Delivery is signalled by invoking a callback at arrival time —
    the MPI layer uses this to enqueue the message at the receiver.

    Statistics separate the three ways a message can take the eager lane:
    size (at or below ``eager_threshold``), an explicit ``eager_hint``
    (control transactions and cancels — counted in
    ``n_eager_hinted``/``hinted_bytes``), or an infinite-bandwidth link,
    where the bulk lane cannot serialize and every message is effectively
    eager (previously such traffic inflated ``bulk_bytes`` while
    ``busy_until`` never advanced).
    ``n_delivery_events`` counts kernel events fired for the coalesced
    delivery path; ``n_messages - n_delivery_events`` messages rode along
    on another message's event.
    """

    def __init__(self, kernel: SimKernel, spec: LinkSpec) -> None:
        self._kernel = kernel
        self.spec = spec
        #: Simulated time at which the bulk lane becomes free.
        self._bulk_free_at = 0.0
        #: Pending delivery callbacks, keyed by arrival instant.  Each key
        #: has exactly one kernel event scheduled to drain it.
        self._pending: dict[float, list] = {}
        #: Statistics: bytes carried, per lane.
        self.bulk_bytes = 0.0
        self.eager_bytes = 0.0
        self.hinted_bytes = 0.0
        self.n_messages = 0
        self.n_eager_hinted = 0
        self.n_delivery_events = 0

    def transmit(self, nbytes: float, on_delivered, eager_hint: bool = False) -> float:
        """Schedule delivery of a message of ``nbytes``.

        Args:
            nbytes: serialized payload size.
            on_delivered: zero-arg callback invoked at arrival time, or an
                ``(endpoint, message)`` pair, which arrival hands to
                ``endpoint._deliver(message)``.
            eager_hint: force the eager lane regardless of size (used for
                small control transactions and cancellation signals).

        Returns:
            The simulated arrival time.
        """
        arrival = self._depart(nbytes, eager_hint)[0]
        self._deliver(arrival, on_delivered)
        return arrival

    def _depart(self, nbytes: float, eager_hint: bool) -> tuple:
        """Put a message on its lane now: ``(arrival, took_eager_lane)``.

        Chooses the lane, counts the message and its bytes, and advances
        the bulk lane; :meth:`_deliver` then queues the delivery.  A
        :class:`~repro.faults.inject.FaultyLink` draws its faults between
        the two steps, so a lost bulk message still occupies the wire.
        """
        self.n_messages += 1
        spec = self.spec
        if eager_hint or spec.bandwidth == float("inf") or nbytes <= spec.eager_threshold:
            # Eager lane: latency + own serialization, no queueing behind
            # bulk.  Infinite-bandwidth links cannot serialize, so all their
            # traffic is eager by construction.
            self.eager_bytes += nbytes
            if eager_hint:
                self.n_eager_hinted += 1
                self.hinted_bytes += nbytes
            return self.eager_arrival(nbytes), True
        # Bulk lane: wait for the lane, then serialize.
        start = max(self._kernel.now, self._bulk_free_at)
        self._bulk_free_at = start + nbytes / spec.bandwidth
        self.bulk_bytes += nbytes
        return self._bulk_free_at + spec.latency, False

    def _deliver(self, arrival: float, on_delivered) -> None:
        """Queue ``on_delivered`` for ``arrival``: the first entry of an
        instant schedules the one kernel event that drains it."""
        pending = self._pending.get(arrival)
        if pending is None:
            self._pending[arrival] = [on_delivered]
            self._kernel.call_at(arrival, self._drain)
        else:
            pending.append(on_delivered)

    def eager_arrival(self, nbytes: float) -> float:
        """Instant an ``nbytes`` message sent now on the eager lane arrives.

        The eager branch of :meth:`_depart` uses exactly this expression,
        and so does the transaction protocol when it charges an
        announcement without sending it
        (:func:`~repro.comm.transactions.send_transaction`): the modelled
        marker arrival is bit-equal to the one a real marker message
        would have had.  On an infinite-bandwidth link the wire time
        ``nbytes / inf`` is exactly ``0.0``.
        """
        spec = self.spec
        return self._kernel.now + spec.latency + nbytes / spec.bandwidth

    def _drain(self) -> None:
        """Deliver every message that arrives at the current instant.

        Entries fire in transmit order: an ``(endpoint, msg)`` pair goes
        to ``endpoint._deliver`` and a plain callback (ack, retransmit) is
        called, so callbacks never overtake data queued ahead of them on
        this link.
        """
        entries = self._pending.pop(self._kernel.now)
        self.n_delivery_events += 1
        for entry in entries:
            if entry.__class__ is tuple:
                entry[0]._deliver(entry[1])
            else:
                entry()

    @property
    def busy_until(self) -> float:
        """Time at which the bulk lane next becomes idle."""
        return self._bulk_free_at
