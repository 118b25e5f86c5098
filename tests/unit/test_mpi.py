"""Simulated MPI semantics: ordering, probing, wildcards, delivery listeners."""

import pytest

from repro.cluster.kernel import SimKernel, run_to_completion
from repro.cluster.testbed import cluster_a, cluster_c
from repro.comm.message import ANY_SOURCE, ANY_TAG, Tag
from repro.comm.mpi_sim import Network
from oracles.blocking import probe, recv


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
        msg = yield from recv(net.endpoint(1), 0, Tag.DECODE)
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
            msg = yield from recv(ep, 0, Tag.DECODE)
            order.append(msg.payload)

    procs = [k.spawn(sender()), k.spawn(receiver())]
    run_to_completion(k, procs)
    assert order == ["big", "small"]


def test_different_tags_may_deliver_out_of_order():
    """Cross-tag ordering is NOT guaranteed (receiver discipline handles it),
    and the ANY_SOURCE/ANY_TAG wildcard takes the earliest arrival."""
    k, net = build(cluster_fn=cluster_a)
    ep = net.endpoint(0)
    ep.send("bulk", 1, Tag.DECODE, nbytes=5e6)
    ep.send("ctl", 1, Tag.CANCEL, nbytes=8)
    k.run()
    rx = net.endpoint(1)
    arrivals = [rx.try_recv(ANY_SOURCE, ANY_TAG).payload for _ in range(2)]
    assert arrivals == ["ctl", "bulk"]  # small control signal raced ahead
    assert rx.try_recv(ANY_SOURCE, ANY_TAG) is None


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
        m1 = yield from recv(ep, 0, (Tag.CANCEL, Tag.LOGITS))
        got.append(m1.payload)
        m2 = yield from recv(ep, 0, Tag.DECODE)
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
        msg = yield from probe(ep, 0, Tag.LOGITS)
        checks.append(ep.iprobe(0, Tag.LOGITS))  # still available after probe
        got = yield from recv(ep, 0, Tag.LOGITS)
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
            msg = yield from recv(ep, ANY_SOURCE, Tag.DECODE)
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


# ---------------------------------------------------------------------------
# Delivery listeners
# ---------------------------------------------------------------------------


def test_listener_fires_once_and_probes_by_default():
    """A one-shot listener sees the first delivery only; without
    ``consume`` the message stays available, like a probe."""
    k, net = build()
    rx = net.endpoint(1)
    seen = []
    rx.listen(Tag.DECODE, lambda msg: seen.append((msg.payload, rx.iprobe(0, Tag.DECODE))))
    ep = net.endpoint(0)
    ep.send("a", 1, Tag.DECODE, nbytes=8)
    ep.send("b", 1, Tag.DECODE, nbytes=8)
    k.run()
    assert seen == [("a", True)]
    assert [m.payload for m in rx.recv_ready(0, Tag.DECODE)] == ["a", "b"]


def test_listener_on_several_tags_disarms_all_of_them():
    k, net = build()
    rx = net.endpoint(1)
    seen = []
    rx.listen((Tag.DECODE, Tag.CACHE_OP), lambda msg: seen.append(msg.payload))
    net.endpoint(0).send("op", 1, Tag.CACHE_OP, nbytes=8)
    k.run()
    net.endpoint(0).send("run", 1, Tag.DECODE, nbytes=8)
    k.run()
    assert seen == ["op"]
    assert not rx._listeners


def test_consuming_listener_records_the_trace_at_delivery():
    """A consuming listener takes the message at its delivery: it never
    becomes available, and the consumption trace has it before the
    listener runs, as a receive parked on it would."""
    k, net = build()
    net.trace = []
    rx = net.endpoint(1)
    seen = []

    def on_msg(msg):
        seen.append((k.now, msg.delivered_at, list(net.trace)))

    rx.listen(Tag.DECODE, on_msg, source=0, consume=True)
    net.endpoint(0).send("x", 1, Tag.DECODE, nbytes=8)
    net.endpoint(0).send("y", 1, Tag.LOGITS, nbytes=8)
    k.run()
    (now, delivered_at, trace) = seen[0]
    assert now == delivered_at > 0
    assert trace == [(1, 0, int(Tag.DECODE), 0)]
    assert not rx.iprobe(0, Tag.DECODE)
    assert rx.iprobe(0, Tag.LOGITS)  # other tags are untouched
    assert net.trace == trace


def test_listener_ignores_other_sources():
    k, net = build(3)
    rx = net.endpoint(2)
    seen = []
    rx.listen(Tag.DECODE, lambda msg: seen.append(msg.src), source=0, consume=True)
    net.endpoint(1).send("from-1", 2, Tag.DECODE, nbytes=8)
    k.run()
    assert seen == [] and rx.iprobe(1, Tag.DECODE)
    net.endpoint(0).send("from-0", 2, Tag.DECODE, nbytes=8)
    k.run()
    assert seen == [0]


def test_listener_fires_after_non_overtaking_releases_the_message():
    """An eager message that overtakes a bulk one on the same stream is
    stashed; the listener fires on the bulk message, at its arrival, and
    the stashed successor follows it in order."""
    k, net = build(cluster_fn=cluster_a)
    rx = net.endpoint(1)
    seen = []

    def on_msg(msg):
        seen.append((msg.payload, k.now))
        rx.listen(Tag.DECODE, on_msg, consume=True)

    rx.listen(Tag.DECODE, on_msg, consume=True)
    ep = net.endpoint(0)
    big = ep.send("big", 1, Tag.DECODE, nbytes=5e6)
    small = ep.send("small", 1, Tag.DECODE, nbytes=8)
    k.run()
    assert [p for p, _ in seen] == ["big", "small"]
    assert seen[0][1] == seen[1][1] == big.delivered_at
    assert small.delivered_at == big.delivered_at  # released by the stash


def test_standing_listener_fires_per_delivery_until_unlisten():
    k, net = build()
    rx = net.endpoint(1)
    seen = []
    rx.listen(Tag.CANCEL, lambda msg: seen.append(msg.payload), consume=True, standing=True)
    ep = net.endpoint(0)
    for i in range(3):
        ep.send(i, 1, Tag.CANCEL, nbytes=8, eager=True)
    k.run()
    assert seen == [0, 1, 2] and not rx.iprobe(0, Tag.CANCEL)
    rx.unlisten(Tag.CANCEL)
    ep.send(3, 1, Tag.CANCEL, nbytes=8, eager=True)
    k.run()
    assert seen == [0, 1, 2] and rx.iprobe(0, Tag.CANCEL)


def test_reset_after_crash_clears_listeners():
    k, net = build()
    rx = net.endpoint(1)
    seen = []
    rx.listen(Tag.CANCEL, seen.append, consume=True, standing=True)
    rx.listen(Tag.DECODE, seen.append)
    rx.reset_after_crash()
    assert not rx._listeners
    net.endpoint(0).send("after", 1, Tag.DECODE, nbytes=8)
    k.run()
    assert seen == [] and rx.iprobe(0, Tag.DECODE)


def test_one_listener_per_tag_and_explicit_tags_only():
    _, net = build()
    rx = net.endpoint(1)
    rx.listen(Tag.DECODE, print)
    with pytest.raises(ValueError):
        rx.listen((Tag.CACHE_OP, Tag.DECODE), print)
    assert set(rx._listeners) == {Tag.DECODE}  # nothing half-armed
    with pytest.raises(ValueError):
        rx.listen(ANY_TAG, print)
