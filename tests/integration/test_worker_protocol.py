"""Worker-process protocol behaviour, driven by a hand-written head."""


from repro.cluster.kernel import SimKernel, run_to_completion
from repro.cluster.testbed import cluster_c
from repro.comm.message import Tag
from repro.comm.mpi_sim import Network
from repro.comm.payloads import (
    Activations,
    CacheOp,
    CacheOpKind,
    CancelMsg,
    DecodeMeta,
    ShutdownMsg,
    TokenSlot,
)
from repro.comm.transactions import TransactionType, send_transaction
from repro.engines.backend import OracleBackend
from repro.engines.worker import pipeline_worker
from repro.metrics.collectors import MetricsCollector
from repro.models.zoo import get_pair
from oracles.blocking import recv


def setup_worker(n_nodes=2):
    kernel = SimKernel()
    cluster = cluster_c(n_nodes)
    net = Network(kernel, cluster)
    backend = OracleBackend(get_pair("dolphin+tinyllama"), head_node=cluster.nodes[0])
    metrics = MetricsCollector()
    ws = backend.make_worker_state(1, (0, backend.n_target_layers), True, True)
    proc = kernel.spawn(
        pipeline_worker(
            net=net, rank=1, upstream=0, downstream=None, head_rank=0,
            backend=backend, ws=ws, node=cluster.nodes[1], metrics=metrics,
        ),
        name="worker-1",
    )
    return kernel, net, backend, metrics, ws, proc


def decode_pieces(backend, run_id, tokens, start, seq, is_spec, chain_tokens):
    slots = [
        TokenSlot(t, start + i, (seq,), want_logits=True)
        for i, t in enumerate(tokens)
    ]
    chain = backend.new_chain(chain_tokens)
    states = backend.slot_states(chain, start, len(tokens))
    meta = DecodeMeta(run_id, slots, is_spec, oracle_states=states)
    meta.nbytes = backend.meta_nbytes(len(tokens))
    act = Activations(run_id, 4.0 * len(tokens), None)
    return [(meta, meta.nbytes), (act, act.nbytes)]


def test_worker_returns_logits_then_shuts_down():
    kernel, net, backend, metrics, ws, proc = setup_worker()
    got = []

    def head():
        ep = net.endpoint(0)
        chain_tokens = [1, 2, 3]
        send_transaction(ep, 1, TransactionType.DECODE,
                         decode_pieces(backend, 7, [3], 2, 0, False, chain_tokens))
        msg = yield from recv(ep, 1, Tag.LOGITS)
        got.append(msg.payload)
        send_transaction(ep, 1, TransactionType.SHUTDOWN, [(ShutdownMsg(), 8.0)],
                         eager=True)

    h = kernel.spawn(head(), name="head")
    run_to_completion(kernel, [proc, h])
    assert got[0].run_id == 7 and not got[0].cancelled
    assert len(got[0].logits) == 1
    # The worker's metadata cache recorded the decoded cell.
    assert ws.cache.has_entry(0, 2)


def test_cancel_before_decode_skips_speculative_run():
    kernel, net, backend, metrics, ws, proc = setup_worker()
    got = []

    def head():
        ep = net.endpoint(0)
        from repro.cluster.kernel import Delay

        ep.send(CancelMsg(9), 1, Tag.CANCEL, nbytes=16.0, eager=True)
        yield Delay(0.01)  # let the cancel land first
        # The chain includes the drafted tokens, as on the real head.
        send_transaction(ep, 1, TransactionType.DECODE,
                         decode_pieces(backend, 9, [5, 6], 3, 2, True, [1, 2, 3, 5, 6]))
        msg = yield from recv(ep, 1, Tag.LOGITS)
        got.append(msg.payload)
        send_transaction(ep, 1, TransactionType.SHUTDOWN, [(ShutdownMsg(), 8.0)],
                         eager=True)

    h = kernel.spawn(head(), name="head")
    run_to_completion(kernel, [proc, h])
    assert got[0].cancelled
    assert metrics.stats.worker_layer_evals_skipped > 0
    # Skipped runs write no cells.
    assert not ws.cache.has_entry(2, 3)


def test_cancel_never_skips_canonical_run():
    """Non-speculative runs evaluate fully even when cancelled (IV-D3)."""
    kernel, net, backend, metrics, ws, proc = setup_worker()
    got = []

    def head():
        ep = net.endpoint(0)
        from repro.cluster.kernel import Delay

        ep.send(CancelMsg(4), 1, Tag.CANCEL, nbytes=16.0, eager=True)
        yield Delay(0.01)
        send_transaction(ep, 1, TransactionType.DECODE,
                         decode_pieces(backend, 4, [3], 2, 0, False, [1, 2, 3]))
        msg = yield from recv(ep, 1, Tag.LOGITS)
        got.append(msg.payload)
        send_transaction(ep, 1, TransactionType.SHUTDOWN, [(ShutdownMsg(), 8.0)],
                         eager=True)

    h = kernel.spawn(head(), name="head")
    run_to_completion(kernel, [proc, h])
    assert not got[0].cancelled  # evaluated in full
    assert ws.cache.has_entry(0, 2)


def test_cache_op_transaction_applied():
    kernel, net, backend, metrics, ws, proc = setup_worker()

    def head():
        ep = net.endpoint(0)
        send_transaction(ep, 1, TransactionType.DECODE,
                         decode_pieces(backend, 1, [3], 2, 0, False, [1, 2, 3]))
        ops = [CacheOp(CacheOpKind.SEQ_CP, 0, 5, 0, 10)]
        send_transaction(ep, 1, TransactionType.CACHE_OP,
                         [(ops, 32.0)], eager=True)
        yield from recv(ep, 1, Tag.LOGITS)
        send_transaction(ep, 1, TransactionType.SHUTDOWN, [(ShutdownMsg(), 8.0)],
                         eager=True)

    h = kernel.spawn(head(), name="head")
    run_to_completion(kernel, [proc, h])
    assert ws.cache.has_entry(5, 2)  # copied from seq 0 into seq 5
