"""Simulated MPI semantics: ordering, probing, wildcards."""

import pytest

from repro.cluster.kernel import SimKernel, run_to_completion
from repro.cluster.testbed import cluster_a, cluster_c
from repro.comm.message import ANY_SOURCE, ANY_TAG, Tag
from repro.comm.mpi_sim import Network


def build(n=2, cluster_fn=cluster_c):
    k = SimKernel()
    net = Network(k, cluster_fn(n))
    return k, net


def test_send_recv_roundtrip():
    k, net = build()
    got = []

    def sender():
        net.endpoint(0).send("hi", 1, Tag.DECODE, nbytes=10)
        yield from ()

    def receiver():
        msg = yield from net.endpoint(1).recv(0, Tag.DECODE)
        got.append(msg.payload)

    p1 = k.spawn(sender())
    p2 = k.spawn(receiver())
    run_to_completion(k, [p1, p2])
    assert got == ["hi"]


def test_send_is_buffered_nonblocking():
    """A sender completes even when nobody ever receives."""
    k, net = build()

    def sender():
        for i in range(5):
            net.endpoint(0).send(i, 1, Tag.DECODE, nbytes=1e6)
        yield from ()

    p = k.spawn(sender())
    k.run()
    assert not p.alive


def test_non_overtaking_same_tag():
    """Messages with one (src, dst, tag) arrive in send order even when the
    eager lane would deliver a later small message first."""
    k, net = build(cluster_fn=cluster_a)  # GigE: strong serialization
    order = []

    def sender():
        ep = net.endpoint(0)
        ep.send("big", 1, Tag.DECODE, nbytes=5e6)   # slow bulk transfer
        ep.send("small", 1, Tag.DECODE, nbytes=8)   # eager, arrives early
        yield from ()

    def receiver():
        ep = net.endpoint(1)
        for _ in range(2):
            msg = yield from ep.recv(0, Tag.DECODE)
            order.append(msg.payload)

    procs = [k.spawn(sender()), k.spawn(receiver())]
    run_to_completion(k, procs)
    assert order == ["big", "small"]


def test_different_tags_may_deliver_out_of_order():
    """Cross-tag ordering is NOT guaranteed (receiver discipline handles it)."""
    k, net = build(cluster_fn=cluster_a)
    arrivals = []

    def sender():
        ep = net.endpoint(0)
        ep.send("bulk", 1, Tag.DECODE, nbytes=5e6)
        ep.send("ctl", 1, Tag.CANCEL, nbytes=8)
        yield from ()

    def receiver():
        ep = net.endpoint(1)
        for _ in range(2):
            msg = yield from ep.recv(ANY_SOURCE, ANY_TAG)
            arrivals.append(msg.payload)

    procs = [k.spawn(sender()), k.spawn(receiver())]
    run_to_completion(k, procs)
    assert arrivals == ["ctl", "bulk"]  # small control signal raced ahead


def test_tag_tuple_filter():
    k, net = build()
    got = []

    def sender():
        ep = net.endpoint(0)
        ep.send("a", 1, Tag.DECODE, nbytes=8)
        ep.send("b", 1, Tag.CANCEL, nbytes=8)
        yield from ()

    def receiver():
        ep = net.endpoint(1)
        m1 = yield from ep.recv(0, (Tag.CANCEL, Tag.LOGITS))
        got.append(m1.payload)
        m2 = yield from ep.recv(0, Tag.DECODE)
        got.append(m2.payload)

    procs = [k.spawn(sender()), k.spawn(receiver())]
    run_to_completion(k, procs)
    assert got == ["b", "a"]


def test_iprobe_nonconsuming():
    k, net = build()
    checks = []

    def sender():
        net.endpoint(0).send("x", 1, Tag.LOGITS, nbytes=8)
        yield from ()

    def receiver():
        ep = net.endpoint(1)
        checks.append(ep.iprobe(0, Tag.LOGITS))  # before arrival
        msg = yield from ep.probe(0, Tag.LOGITS)
        checks.append(ep.iprobe(0, Tag.LOGITS))  # still available after probe
        got = yield from ep.recv(0, Tag.LOGITS)
        checks.append(ep.iprobe(0, Tag.LOGITS))  # consumed
        assert got.payload == "x"

    procs = [k.spawn(sender()), k.spawn(receiver())]
    run_to_completion(k, procs)
    assert checks == [False, True, False]


def test_wildcard_source():
    k, net = build(3)
    got = []

    def sender(rank, when):
        def gen():
            from repro.cluster.kernel import Delay

            yield Delay(when)
            net.endpoint(rank).send(rank, 2, Tag.DECODE, nbytes=8)

        return gen()

    def receiver():
        ep = net.endpoint(2)
        for _ in range(2):
            msg = yield from ep.recv(ANY_SOURCE, Tag.DECODE)
            got.append(msg.src)

    procs = [k.spawn(sender(0, 0.2)), k.spawn(sender(1, 0.1)), k.spawn(receiver())]
    run_to_completion(k, procs)
    assert got == [1, 0]  # earliest arrival first


def test_invalid_destination_rejected():
    k, net = build()
    with pytest.raises(ValueError):
        net.endpoint(0).send("x", 7, Tag.DECODE, nbytes=1)


def test_network_statistics():
    k, net = build()
    net.endpoint(0).send("x", 1, Tag.DECODE, nbytes=100)
    assert net.n_sent == 1
    assert net.bytes_sent == 100


def test_seq_numbers_per_src_dst_tag():
    k, net = build(3)
    ep = net.endpoint(0)
    m1 = ep.send("a", 1, Tag.DECODE, nbytes=1)
    m2 = ep.send("b", 1, Tag.DECODE, nbytes=1)
    m3 = ep.send("c", 1, Tag.CANCEL, nbytes=1)
    m4 = ep.send("d", 2, Tag.DECODE, nbytes=1)
    assert (m1.seq, m2.seq) == (0, 1)
    assert m3.seq == 0  # independent stream per tag
    assert m4.seq == 0  # independent stream per destination
