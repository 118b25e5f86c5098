"""Ack + retransmit transport: loss recovery, backoff, duplicate handling.

All tests drive real sends through a :class:`FaultInjector`-installed
network so the loss draws, watchdogs, acks, and the endpoint's stale-drop
logic interact exactly as in a faulty serving run.  Outage windows (not
probabilistic loss) make every scenario fully deterministic.
"""

import pytest

from repro.cluster.kernel import SimError, SimKernel, run_to_completion
from repro.cluster.testbed import cluster_c
from repro.comm.message import Tag
from repro.comm.mpi_sim import Network
from repro.faults import FaultInjector, FaultPlan, FaultyLink, LinkFault
from repro.metrics.collectors import MetricsCollector
from oracles.blocking import recv


def build(plan, n=2):
    """Kernel + network with ``plan`` installed, mirroring run_serving."""
    k = SimKernel()
    net = Network(k, cluster_c(n))
    metrics = MetricsCollector()
    injector = FaultInjector(plan)
    injector.install(k, net, metrics)
    return k, net, injector, metrics


def _blackout(src=0, dst=1, end=0.1):
    """All lanes of one directed link dead until ``end``."""
    return LinkFault(src, dst, outage=True, outage_all_lanes=True, end=end)


def test_retransmit_with_exponential_backoff_recovers():
    """A message lost during an outage is retransmitted until it lands."""
    plan = FaultPlan(link_faults=(_blackout(end=0.1),), rto=0.02, max_retries=20)
    k, net, injector, metrics = build(plan)
    got = []

    def sender():
        net.endpoint(0).send("payload", 1, Tag.DECODE, nbytes=8)
        yield from ()

    def receiver():
        msg = yield from recv(net.endpoint(1), 0, Tag.DECODE)
        got.append(msg.payload)

    run_to_completion(k, [k.spawn(sender()), k.spawn(receiver())])
    assert got == ["payload"]
    # Backoff doubles: retries at t=0.02, 0.06, 0.14; the third one lands
    # past the outage.  A fixed-interval watchdog would have needed five.
    assert metrics.stats.retransmits == 3
    assert metrics.stats.timeouts == 3
    lost = sum(
        link.n_lost
        for link in net.cluster._links.values()
        if isinstance(link, FaultyLink)
    )
    assert lost == 3  # original + two dead retransmits
    assert net._reliable.n_unacked() == 0  # ack cleaned the queue


def test_unrecoverable_link_raises_after_max_retries():
    plan = FaultPlan(
        link_faults=(_blackout(end=float("inf")),), rto=0.01, max_retries=3
    )
    k, net, _, _ = build(plan)

    def sender():
        net.endpoint(0).send("x", 1, Tag.DECODE, nbytes=8)
        yield from ()

    def receiver():
        yield from recv(net.endpoint(1), 0, Tag.DECODE)

    procs = [k.spawn(sender()), k.spawn(receiver())]
    with pytest.raises(SimError, match="unacknowledged after 3"):
        run_to_completion(k, procs)


def test_cumulative_ack_covers_stashed_successors():
    """Losing the head of a stream stalls it; the retransmit releases the
    stashed successors and one cumulative ack clears every entry."""
    plan = FaultPlan(link_faults=(_blackout(end=0.05),), rto=0.02, max_retries=20)
    k, net, _, metrics = build(plan)
    got = []

    def sender():
        from repro.cluster.kernel import Delay

        ep = net.endpoint(0)
        ep.send("a", 1, Tag.DECODE, nbytes=8)  # t=0: eaten by the outage
        yield Delay(0.06)  # outage over: b and c arrive, stash behind a
        ep.send("b", 1, Tag.DECODE, nbytes=8)
        ep.send("c", 1, Tag.DECODE, nbytes=8)

    def receiver():
        ep = net.endpoint(1)
        for _ in range(3):
            msg = yield from recv(ep, 0, Tag.DECODE)
            got.append(msg.payload)

    run_to_completion(k, [k.spawn(sender()), k.spawn(receiver())])
    assert got == ["a", "b", "c"]  # non-overtaking preserved through loss
    assert metrics.stats.retransmits >= 1
    assert net._reliable.n_unacked() == 0


def test_lost_ack_triggers_duplicate_which_is_suppressed():
    """Data arrives but its ack dies: the sender retransmits, the receiver
    stale-drops the duplicate and re-acks, and exactly one copy is seen."""
    # Fault only the reverse (ack) path.
    plan = FaultPlan(
        link_faults=(_blackout(src=1, dst=0, end=0.05),),
        rto=0.02,
        max_retries=20,
    )
    k, net, _, metrics = build(plan)
    got = []

    def sender():
        net.endpoint(0).send("once", 1, Tag.DECODE, nbytes=8)
        yield from ()

    def receiver():
        from repro.cluster.kernel import Delay

        ep = net.endpoint(1)
        msg = yield from recv(ep, 0, Tag.DECODE)
        got.append(msg.payload)
        # Idle long enough for any duplicate to arrive (and be dropped
        # before matching a receive: stale seqs never reach the mailbox).
        yield Delay(0.2)
        assert not ep._available and not ep._stash

    run_to_completion(k, [k.spawn(sender()), k.spawn(receiver())])
    assert got == ["once"]
    assert metrics.stats.retransmits >= 1  # ack loss looked like data loss
    assert net._reliable.n_unacked() == 0  # the re-ack finally got through


def test_loopback_sends_bypass_the_transport():
    plan = FaultPlan(link_faults=(_blackout(),), rto=0.02)
    k, net, _, _ = build(plan)
    got = []

    def selftalk():
        ep = net.endpoint(0)
        ep.send("self", 0, Tag.DECODE, nbytes=8)
        msg = yield from recv(ep, 0, Tag.DECODE)
        got.append(msg.payload)

    run_to_completion(k, [k.spawn(selftalk())])
    assert got == ["self"]
    assert net._reliable.n_unacked() == 0  # never tracked


def test_faulty_links_only_wrap_planned_pairs():
    """The factory wraps exactly the faulted pairs; the rest stay plain."""
    from repro.cluster.interconnect import Link
    from repro.faults import FaultyLink

    plan = FaultPlan(link_faults=(LinkFault(0, 1, loss_rate=0.2),))
    k, net, _, _ = build(plan, n=3)
    assert isinstance(net.cluster.link(0, 1), FaultyLink)
    assert not isinstance(net.cluster.link(1, 0), FaultyLink)
    assert isinstance(net.cluster.link(1, 0), Link)
    assert not isinstance(net.cluster.link(1, 2), FaultyLink)
