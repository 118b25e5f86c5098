"""Link model: latency, bandwidth serialization, eager lane; wire sizes."""

import pytest

from repro import GenerationJob, OracleBackend, PipeInferEngine, get_pair, run_engine
from repro.cluster.interconnect import (
    GIGABIT_ETHERNET,
    INFINIBAND_EDR,
    INFINIBAND_QDR,
    Link,
    LinkSpec,
    LOOPBACK,
)
from repro.cluster.kernel import Delay, SimKernel, run_to_completion
from repro.cluster.testbed import cluster_c
from repro.comm.message import Tag
from repro.comm.mpi_sim import Network
from repro.comm.payloads import (
    CacheOp,
    CacheOpKind,
    CancelMsg,
    DecodeMeta,
    FusedRun,
    ShutdownMsg,
)
from repro.comm.transactions import (
    send_cache_ops,
    send_cancel,
    send_decode,
    send_fused,
    send_shutdown,
)
from repro.core.head import build_run_payload
from repro.core.run_state import RunKind, RunRecord
from repro.engines.worker import pipeline_worker
from repro.metrics.collectors import MetricsCollector
from repro.util.units import Gbps, us
from oracles.blocking import recv


def make_link(spec):
    k = SimKernel()
    return k, Link(k, spec)


def test_small_message_pays_latency_plus_wire_time():
    spec = LinkSpec("t", latency=10 * us, bandwidth=1e6, eager_threshold=1e9)
    k, link = make_link(spec)
    arrival = link.transmit(1000, lambda: None)
    assert arrival == 10 * us + 1000 / 1e6


def test_bulk_messages_serialize():
    spec = LinkSpec("t", latency=0.0, bandwidth=1e6, eager_threshold=10)
    k, link = make_link(spec)
    a1 = link.transmit(1e6, lambda: None)  # 1 second on the wire
    a2 = link.transmit(1e6, lambda: None)  # queued behind it
    assert a1 == 1.0
    assert a2 == 2.0


def test_eager_lane_bypasses_bulk_queue():
    spec = LinkSpec("t", latency=1 * us, bandwidth=1e6, eager_threshold=100)
    k, link = make_link(spec)
    link.transmit(1e6, lambda: None)  # occupies bulk lane for 1 s
    eager_arrival = link.transmit(50, lambda: None)
    assert eager_arrival < 0.001  # didn't wait behind the bulk transfer


def test_eager_hint_forces_lane():
    spec = LinkSpec("t", latency=0.0, bandwidth=1e6, eager_threshold=1)
    k, link = make_link(spec)
    link.transmit(1e6, lambda: None)
    arrival = link.transmit(1e6, lambda: None, eager_hint=True)
    assert arrival == 1.0  # own serialization only, no queueing


def test_delivery_callback_fires_at_arrival_time():
    spec = LinkSpec("t", latency=5 * us, bandwidth=float("inf"))
    k, link = make_link(spec)
    seen = []
    link.transmit(10, lambda: seen.append(k.now))
    k.run()
    assert seen == [5 * us]


def test_statistics_track_lanes():
    spec = LinkSpec("t", latency=0.0, bandwidth=1e9, eager_threshold=100)
    k, link = make_link(spec)
    link.transmit(50, lambda: None)
    link.transmit(5000, lambda: None)
    assert link.eager_bytes == 50
    assert link.bulk_bytes == 5000
    assert link.n_messages == 2


def test_loopback_is_free():
    k, link = make_link(LOOPBACK)
    assert link.transmit(1e12, lambda: None) == 0.0


def test_catalog_specs():
    assert GIGABIT_ETHERNET.bandwidth == Gbps(1)
    assert INFINIBAND_EDR.bandwidth == Gbps(100)
    assert INFINIBAND_QDR.bandwidth == Gbps(40)
    assert INFINIBAND_EDR.latency < GIGABIT_ETHERNET.latency


# ---------------------------------------------------------------------------
# Eager-lane stat split and coalesced delivery (PR 6)
# ---------------------------------------------------------------------------


def test_eager_hint_counters_split_from_size_eager():
    spec = LinkSpec("t", latency=0.0, bandwidth=1e9, eager_threshold=100)
    k, link = make_link(spec)
    link.transmit(50, lambda: None)                      # size-eager
    link.transmit(5000, lambda: None, eager_hint=True)   # hinted
    assert link.n_eager_hinted == 1
    assert link.hinted_bytes == 5000
    assert link.eager_bytes == 5050  # both rode the eager lane
    assert link.bulk_bytes == 0


def test_infinite_bandwidth_routes_everything_eager():
    """bandwidth=inf cannot serialize: no bulk stats, busy_until frozen."""
    spec = LinkSpec("t", latency=1 * us, bandwidth=float("inf"),
                    eager_threshold=10)
    k, link = make_link(spec)
    arrival = link.transmit(1e9, lambda: None)  # far above the threshold
    assert arrival == 1 * us
    assert link.bulk_bytes == 0
    assert link.eager_bytes == 1e9
    assert link.busy_until == 0.0


def test_same_instant_arrivals_share_one_delivery_event():
    spec = LinkSpec("t", latency=10 * us, bandwidth=float("inf"))
    k, link = make_link(spec)
    order = []
    for i in range(5):
        link.transmit(100, lambda i=i: order.append(i))
    before = k.n_events
    k.run()
    assert order == [0, 1, 2, 3, 4]  # transmit order within the instant
    assert link.n_messages == 5
    assert link.n_delivery_events == 1
    assert k.n_events - before == 1  # one kernel event drained all five


def test_distinct_arrivals_use_distinct_delivery_events():
    spec = LinkSpec("t", latency=0.0, bandwidth=1e6, eager_threshold=10)
    k, link = make_link(spec)
    seen = []
    link.transmit(1e6, lambda: seen.append("a"))  # bulk: arrives at 1s
    link.transmit(1e6, lambda: seen.append("b"))  # serializes: arrives at 2s
    k.run()
    assert seen == ["a", "b"]
    assert link.n_delivery_events == 2


def test_drain_mixes_endpoints_and_callbacks_in_transmit_order():
    """Message pairs to two endpoints and a raw callback share one instant:
    the drain fires every entry in transmit order, in one event."""
    order = []

    class Inbox:
        def __init__(self, name):
            self.name = name

        def _deliver(self, msg):
            order.append((self.name, msg))

    a, b = Inbox("a"), Inbox("b")
    k, link = make_link(LinkSpec("t", latency=10 * us, bandwidth=float("inf")))
    link.transmit(100, (a, 1))
    link.transmit(100, (a, 2))
    link.transmit(100, lambda: order.append(("callback", 3)))
    link.transmit(100, (b, 4))
    link.transmit(100, (a, 5))
    k.run()
    assert order == [("a", 1), ("a", 2), ("callback", 3), ("b", 4), ("a", 5)]
    assert link.n_delivery_events == 1


# ---------------------------------------------------------------------------
# Transaction sizes on the wire: every kind is sized by its one sender
# ---------------------------------------------------------------------------


@pytest.fixture()
def wire(monkeypatch):
    """Record every network send as (src, dst, tag, payload, nbytes, eager)."""
    sent = []
    transmit = Network._transmit

    def spy(net, src, dst, tag, payload, nbytes, eager):
        sent.append((src, dst, tag, payload, nbytes, eager))
        return transmit(net, src, dst, tag, payload, nbytes, eager)

    monkeypatch.setattr(Network, "_transmit", spy)
    return sent


def window_nbytes(items):
    """A FUSED window's size, summed in dispatch order."""
    nbytes = 0.0
    for item in items:
        if isinstance(item, FusedRun):
            nbytes += item.meta.nbytes + item.act.nbytes
        else:
            nbytes += 32.0 * len(item)
    return nbytes


def test_hand_driven_window_piece_sizes(wire):
    """A head drives two pipeline workers through every transaction kind."""
    kernel = SimKernel()
    cluster = cluster_c(3)
    net = Network(kernel, cluster)
    be = OracleBackend(get_pair("dolphin+tinyllama"), head_node=cluster.nodes[0])
    mid = be.n_target_layers // 2
    procs = []
    for rank, layers, downstream in ((1, (0, mid), 2), (2, (mid, be.n_target_layers), None)):
        ws = be.make_worker_state(rank, layers, rank == 1, downstream is None)
        procs.append(kernel.spawn(pipeline_worker(
            net=net, rank=rank, upstream=rank - 1, downstream=downstream, head_rank=0,
            backend=be, ws=ws, node=cluster.nodes[rank], metrics=MetricsCollector(),
        ), name=f"worker-{rank}"))
    chain = be.new_chain([1, 2, 3])
    prefill = RunRecord(1, RunKind.PREFILL, [1, 2, 3], 0, 0)
    canonical = RunRecord(2, RunKind.CANONICAL, [3], 2, 0)
    ops = [CacheOp(CacheOpKind.SEQ_CP, 0, 5, 0, 2), CacheOp(CacheOpKind.SEQ_RM, 6, 6, 0, 9)]
    burst = [
        ops,
        FusedRun(*build_run_payload(be, canonical, be.slot_states(chain, 2, 1))),
    ]

    def head():
        ep = net.endpoint(0)
        send_decode(
            ep, 1, *build_run_payload(be, prefill, be.slot_states(chain, 0, 3), False)
        )
        yield from recv(ep, 2, Tag.LOGITS)
        send_fused(ep, 1, burst)
        yield from recv(ep, 2, Tag.LOGITS)
        send_cache_ops(ep, 1, ops[:1])
        send_cancel(ep, 2, 99)
        yield Delay(0.01)  # the cancel relays back to the first stage
        send_shutdown(ep, 1)

    procs.append(kernel.spawn(head(), name="head"))
    run_to_completion(kernel, procs)
    got = [(s, d, t, type(p).__name__, n, e) for s, d, t, p, n, e in wire if t != Tag.LOGITS]
    act = be.activation_nbytes
    assert got == [
        # The prefill: meta, then token-id activations, on the DECODE tag.
        (0, 1, Tag.DECODE, "DecodeMeta", 32.0 + 24.0 * 3, False),
        (0, 1, Tag.DECODE, "Activations", 4.0 * 3, False),
        # The first stage forwards it as a one-run window.
        (1, 2, Tag.FUSED, "FusedBatch", (32.0 + 24.0 * 3) + act(3), False),
        # The head's burst and the forwarded window are sized alike.
        (0, 1, Tag.FUSED, "FusedBatch", 64.0 + ((32.0 + 24.0) + 4.0), False),
        (1, 2, Tag.FUSED, "FusedBatch", 64.0 + ((32.0 + 24.0) + act(1)), False),
        (0, 1, Tag.CACHE_OP, "list", 32.0, True),
        # The cancel enters at the last stage and relays toward the first.
        (0, 2, Tag.CANCEL, "CancelMsg", 16.0, True),
        (2, 1, Tag.CANCEL, "CancelMsg", 16.0, True),
        # The first stage forwards the op batch as a window.
        (1, 2, Tag.FUSED, "FusedBatch", 32.0, False),
        (0, 1, Tag.CONTROL, "ShutdownMsg", 8.0, True),
        (1, 2, Tag.CONTROL, "ShutdownMsg", 8.0, True),
    ]
    windows = [p for s, d, t, p, n, e in wire if t == Tag.FUSED]
    assert [p.nbytes for p in windows] == [window_nbytes(p.items) for p in windows]


def test_oracle_run_piece_sizes(wire):
    """Every piece of a small PipeInfer run is sized by its kind's model."""
    be = OracleBackend(get_pair("dolphin+tinyllama"), head_node=cluster_c(4).nodes[0])
    report = run_engine(
        PipeInferEngine, be, cluster_c(4), GenerationJob(tuple(range(1, 17)), 24)
    )
    assert len(report.tokens) == 24
    hops = {}
    for src, dst, tag, payload, nbytes, eager in wire:
        hops.setdefault(tag, set()).add((src, dst))
        if tag == Tag.DECODE:  # meta, then the same run's token ids
            if isinstance(payload, DecodeMeta):
                meta = payload
                assert (nbytes, eager) == (32.0 + 24.0 * meta.n_tokens, False)
            else:
                assert (nbytes, eager) == (4.0 * meta.n_tokens, False)
        elif tag == Tag.FUSED:
            assert (nbytes, eager) == (window_nbytes(payload.items), False)
            for run in payload.items:
                if isinstance(run, FusedRun):
                    n = run.meta.n_tokens
                    assert run.meta.nbytes == 32.0 + 24.0 * n
                    assert run.act.nbytes in (
                        (4.0 * n,) if src == 0 else (be.activation_nbytes(n), 16.0)
                    )
        elif tag == Tag.CACHE_OP:
            assert (nbytes, eager) == (32.0 * len(payload), True)
        elif tag == Tag.CANCEL:
            assert (type(payload), nbytes, eager) == (CancelMsg, 16.0, True)
        elif tag == Tag.CONTROL:
            assert (type(payload), nbytes, eager) == (ShutdownMsg, 8.0, True)
    # Both hops of the relayed kinds were exercised.
    assert {(0, 3), (3, 2), (2, 1)} <= hops[Tag.CANCEL]
    assert hops[Tag.CONTROL] == {(0, 1), (1, 2), (2, 3)}
    assert {(0, 1), (1, 2), (2, 3)} <= hops[Tag.FUSED]
    assert hops[Tag.DECODE] == {(0, 1)} and hops[Tag.CACHE_OP] == {(0, 1)}
