"""PipeInfer's ordered transaction framing (paper Fig. 2).

The start marker of a transaction is an announcement on the receiver, not
a message: these tests pin that dispatch still follows send order, that
the worker's fusion probe sees exactly the transactions whose marker would
have arrived, that a crash forgets announcements, and that the modelled
marker arrives at the instant a real one would have.
"""

from repro.cluster.interconnect import Link
from repro.cluster.kernel import Delay, SimKernel, run_to_completion
from repro.cluster.testbed import cluster_a
from repro.comm.message import ANY_SOURCE, Tag
from repro.comm.mpi_sim import Network
from repro.comm.payloads import ShutdownMsg
from repro.comm.transactions import (
    START_NBYTES,
    TransactionType,
    send_transaction,
)
from oracles.blocking import probe, recv
from tests.integration.test_worker_protocol import decode_pieces, setup_worker

PIECE_TAGS = (Tag.DECODE, Tag.CACHE_OP, Tag.FUSED, Tag.CONTROL)


def dispatch(ep):
    """Receive the next transaction the way a worker does: wake on any
    piece, then take the oldest announcement from that piece's sender."""
    piece = ep.peek(ANY_SOURCE, PIECE_TAGS)
    if piece is None:
        piece = yield from probe(ep, ANY_SOURCE, PIECE_TAGS)
    return piece.src, ep.take_announcement(piece.src)


def test_transactions_processed_in_start_order():
    """A bulk FUSED transaction, then an eager CACHE_OP and a small DECODE:
    the later pieces overtake the bulk one on the wire, yet the receiver
    dispatches the three in send order."""
    k = SimKernel()
    net = Network(k, cluster_a(2))
    log = []

    def sender():
        ep = net.endpoint(0)
        send_transaction(ep, 1, TransactionType.FUSED, [("window", 4e6)])
        send_transaction(ep, 1, TransactionType.CACHE_OP, [(["op1"], 32)], eager=True)
        send_transaction(ep, 1, TransactionType.DECODE, [("meta", 16), ("acts", 8)])
        yield from ()

    def receiver():
        ep = net.endpoint(1)
        for _ in range(3):
            src, ttype = yield from dispatch(ep)
            pieces = 2 if ttype == TransactionType.DECODE else 1
            for _ in range(pieces):
                msg = yield from recv(ep, src, int(ttype))
                log.append((ttype, msg.payload, msg.delivered_at))

    procs = [k.spawn(sender()), k.spawn(receiver())]
    run_to_completion(k, procs)
    assert [entry[:2] for entry in log] == [
        (TransactionType.FUSED, "window"),
        (TransactionType.CACHE_OP, ["op1"]),
        (TransactionType.DECODE, "meta"),
        (TransactionType.DECODE, "acts"),
    ]
    assert log[1][2] < log[0][2], "no overtaking: the test is vacuous"


def test_transaction_pieces_stay_with_their_start():
    """Pieces of back-to-back same-type transactions never mix: tag order
    is per-(src, dst, tag) FIFO and the handler pulls exactly its pieces."""
    k = SimKernel()
    net = Network(k, cluster_a(2))
    seen = []

    def sender():
        ep = net.endpoint(0)
        for i in range(4):
            send_transaction(ep, 1, TransactionType.DECODE, [(f"m{i}", 16), (f"a{i}", 16)])
        yield from ()

    def receiver():
        ep = net.endpoint(1)
        for _ in range(4):
            src, ttype = yield from dispatch(ep)
            m = yield from recv(ep, src, ttype)
            a = yield from recv(ep, src, ttype)
            seen.append((m.payload, a.payload))

    procs = [k.spawn(sender()), k.spawn(receiver())]
    run_to_completion(k, procs)
    assert seen == [("m0", "a0"), ("m1", "a1"), ("m2", "a2"), ("m3", "a3")]


def _fusion_widths(second_after: float):
    """Send a small eager DECODE run, then — ``second_after`` seconds later —
    a run whose activation is a bulk transfer; return the worker's fusion
    width histogram."""
    kernel, net, backend, metrics, ws, proc = setup_worker()
    chain = [1, 2, 3, 4]

    def head():
        ep = net.endpoint(0)
        send_transaction(ep, 1, TransactionType.DECODE,
                         decode_pieces(backend, 1, [3], 2, 0, False, chain))
        if second_after:
            yield Delay(second_after)
        meta, act = decode_pieces(backend, 2, [4], 3, 0, False, chain)
        act[0].nbytes = 4e6
        send_transaction(ep, 1, TransactionType.DECODE, [meta, (act[0], 4e6)])
        for _ in range(2):
            yield from recv(ep, 1, Tag.LOGITS)
        send_transaction(ep, 1, TransactionType.SHUTDOWN, [(ShutdownMsg(), 8.0)],
                         eager=True)

    run_to_completion(kernel, [proc, kernel.spawn(head(), name="head")])
    return metrics.fusion_width[1]


def test_fusion_probe_extends_window_for_announced_payload():
    """The second run is announced before the first run's pieces arrive,
    but its bulk activation lands long after: the window waits for it and
    evaluates both runs together."""
    assert _fusion_widths(0.0) == {2: 1}


def test_fusion_probe_ignores_unannounced_transaction():
    """Sent 1 µs later, the second run is already in the sender's FIFO when
    the first run's payload lands, but its marker would land after that
    payload: the window closes without it, giving two windows of one."""
    assert _fusion_widths(1e-6) == {1: 2}


def test_reset_after_crash_drops_announcements():
    """A crash forgets announcements together with the messages they cover:
    the restarted receiver dispatches the first post-crash transaction
    instead of waiting for a pre-crash payload that arrives stale."""
    k = SimKernel()
    net = Network(k, cluster_a(2))
    got = []

    def sender():
        ep = net.endpoint(0)
        send_transaction(ep, 1, TransactionType.DECODE, [("old-meta", 16), ("old-acts", 4e6)])
        yield Delay(1e-3)
        net.endpoint(1).reset_after_crash()
        assert not net.endpoint(1).announced(0)
        send_transaction(ep, 1, TransactionType.CACHE_OP, [(["new-op"], 32)], eager=True)

    def receiver():
        ep = net.endpoint(1)
        yield Delay(2e-3)
        src, ttype = yield from dispatch(ep)
        got.append((ttype, (yield from recv(ep, src, ttype)).payload))

    run_to_completion(k, [k.spawn(sender()), k.spawn(receiver())])
    assert got == [(TransactionType.CACHE_OP, ["new-op"])]
    assert not net.endpoint(1).iprobe(0, Tag.DECODE)


def test_announcement_lands_when_the_marker_would_have():
    """``announce_at`` is bit-equal to the arrival instant of a 16-byte
    eager marker message sent at the same instant, on a real link and on
    the loopback one."""
    k = SimKernel()
    cluster = cluster_a(2)
    net = Network(k, cluster)
    got = {}

    def at_odd_instant():
        ep = net.endpoint(0)
        for dest in (1, 0):
            link = cluster.link(0, dest)
            marker = Link(k, link.spec).transmit(START_NBYTES, lambda: None, eager_hint=True)
            spec = link.spec
            wire = 0.0 if spec.bandwidth == float("inf") else START_NBYTES / spec.bandwidth
            got[dest] = (
                ep.announce(dest, TransactionType.DECODE, START_NBYTES),
                marker,
                k.now + spec.latency + wire,
            )

    k.call_at(0.1 + 0.2, at_odd_instant)
    k.run()
    announce_at, marker, formula = got[1]
    assert announce_at == marker == formula and announce_at > 0.3
    announce_at, marker, formula = got[0]
    assert announce_at == marker == formula == 0.1 + 0.2


def test_transaction_type_values_are_tags():
    assert int(TransactionType.DECODE) == Tag.DECODE
    assert int(TransactionType.CACHE_OP) == Tag.CACHE_OP
    assert int(TransactionType.SHUTDOWN) == Tag.CONTROL
    assert int(TransactionType.FUSED) == Tag.FUSED
