"""A stage window stops at the roofline ridge, and cancels relay on arrival.

Both are driven through one pipeline worker with hand-written neighbours:
the head (rank 0) feeds it, and the test reads what it forwards.
"""

import pytest

from repro.cluster.kernel import Delay, SimKernel, run_to_completion
from repro.cluster.testbed import cluster_c
from repro.comm.message import Tag
from repro.comm.mpi_sim import Network
from repro.comm.payloads import CancelMsg, ShutdownMsg
from repro.comm.transactions import TransactionType, send_transaction
from repro.engines.backend import OracleBackend
from repro.engines.worker import pipeline_worker
from repro.metrics.collectors import MetricsCollector
from repro.models.zoo import get_pair
from repro.pipeline.partition import partition_for
from tests.integration.test_fusion import SlowStageBackend
from tests.integration.test_worker_protocol import decode_pieces

CHAIN = [1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13]


def spawn_worker(kernel, net, backend, rank, upstream, downstream, layer_range):
    ws = backend.make_worker_state(
        rank, layer_range, upstream == 0, downstream is None
    )
    return kernel.spawn(
        pipeline_worker(
            net=net, rank=rank, upstream=upstream, downstream=downstream,
            head_rank=0, backend=backend, ws=ws, node=net.cluster.nodes[rank],
            metrics=MetricsCollector(),
        ),
        name=f"worker-{rank}",
    )


def shutdown(ep, dest):
    send_transaction(ep, dest, TransactionType.SHUTDOWN, [(ShutdownMsg(), 8.0)],
                     eager=True)


class TestRidgeWindow:
    """On ``cluster_c(8)`` a stage's ridge is 2 tokens (Gold 6140)."""

    def forwarded(self, runs):
        """Stage 1 of a PipeInfer pipeline on ``cluster_c(8)``: the head
        announces ``runs`` (``(run_id, tokens, start)``) together at t=0;
        returns each forwarded window as ``(sent_at, run ids)``."""
        kernel = SimKernel()
        cluster = cluster_c(8)
        net = Network(kernel, cluster)
        backend = OracleBackend(get_pair("dolphin+tinyllama"), head_node=cluster.nodes[0])
        layers = partition_for(backend.n_target_layers, cluster.nodes[1:])[0]
        proc = spawn_worker(kernel, net, backend, 1, 0, 2, layers)
        windows = []

        def head():
            ep = net.endpoint(0)
            for run_id, tokens, start in runs:
                send_transaction(
                    ep, 1, TransactionType.DECODE,
                    decode_pieces(backend, run_id, tokens, start, run_id, True, CHAIN),
                )
            yield Delay(0.0)

        def stage_2():
            ep = net.endpoint(2)
            while sum(len(ids) for _, ids in windows) < len(runs):
                msg = yield from ep.recv(1, Tag.FUSED)
                windows.append(
                    (msg.sent_at, [it.meta.run_id for it in msg.payload.items])
                )
            shutdown(net.endpoint(0), 1)

        procs = [proc, kernel.spawn(head(), name="head"),
                 kernel.spawn(stage_2(), name="stage-2")]
        run_to_completion(kernel, procs)

        def stage_time(n_tokens):
            return sum(backend.stage_chunks(cluster.nodes[1], layers, n_tokens))

        return windows, stage_time

    def test_two_four_token_runs_run_as_two_windows(self):
        alone, _ = self.forwarded([(1, [5, 6, 7, 8], 3)])
        both, stage_time = self.forwarded(
            [(1, [5, 6, 7, 8], 3), (2, [9, 10, 11, 12], 7)]
        )
        assert [ids for _, ids in both] == [[1], [2]]
        # The older run leaves stage 1 when it would have alone: after
        # stage_time(4), not after the fused stage_time(8).
        assert both[0][0] == alone[0][0]
        assert stage_time(8) - stage_time(4) > 0.5 * stage_time(1)
        # The younger run follows one 4-token stage later.
        assert both[1][0] - both[0][0] == pytest.approx(stage_time(4))

    def test_runs_fuse_up_to_the_ridge(self):
        windows, _ = self.forwarded([(1, [5], 3), (2, [6], 4), (3, [7], 5)])
        assert [ids for _, ids in windows] == [[1, 2], [3]]


class TestCancelRelay:
    def test_cancel_reaches_upstream_one_hop_after_it_lands(self):
        """A cancel landing at a busy stage k leaves for stage k-1 at once;
        it does not wait for stage k's next chunk boundary."""
        kernel = SimKernel()
        cluster = cluster_c(3)
        net = Network(kernel, cluster)
        backend = SlowStageBackend(
            get_pair("dolphin+tinyllama"), head_node=cluster.nodes[0]
        )
        # Stage k is rank 2, the last stage; rank 1 stands in for stage k-1.
        proc = spawn_worker(kernel, net, backend, 2, 1, None, (0, 8))
        sent = []
        relayed = []

        def stage_1():
            ep = net.endpoint(1)
            send_transaction(ep, 2, TransactionType.DECODE,
                             decode_pieces(backend, 4, [5, 6], 3, 2, True, CHAIN))
            msg = yield from ep.recv(2, Tag.CANCEL)
            relayed.append(msg)
            shutdown(ep, 2)

        def head():
            ep = net.endpoint(0)
            # The window runs four 0.05 s chunks from about t=0; the
            # cancel lands between its chunk boundaries.
            yield Delay(0.07)
            sent.append(ep.send(CancelMsg(4), 2, Tag.CANCEL, nbytes=16.0, eager=True))
            yield from ep.recv(2, Tag.LOGITS)

        procs = [proc, kernel.spawn(stage_1(), name="stage-1"),
                 kernel.spawn(head(), name="head")]
        run_to_completion(kernel, procs)
        landed = sent[0].delivered_at
        assert 0.05 < landed < 0.1, "the cancel must land mid-chunk"
        (relay,) = relayed
        assert relay.payload.run_id == 4
        assert relay.sent_at == landed
        link = cluster.link(2, 1)
        assert relay.delivered_at == pytest.approx(
            landed + link.spec.latency, rel=0.01
        )

    def test_crashed_worker_relays_nothing_and_respawn_rearms(self):
        kernel = SimKernel()
        cluster = cluster_c(3)
        net = Network(kernel, cluster)
        backend = SlowStageBackend(
            get_pair("dolphin+tinyllama"), head_node=cluster.nodes[0]
        )
        proc = spawn_worker(kernel, net, backend, 2, 1, None, (0, 8))
        relayed = []

        def crash_and_respawn():
            yield Delay(0.01)
            proc.alive = False
            proc.gen.close()
            net.endpoint(2).reset_after_crash()
            net.endpoint(0).send(CancelMsg(7), 2, Tag.CANCEL, nbytes=16.0, eager=True)
            yield Delay(0.1)
            assert not relayed, "a crashed worker relayed a cancel"
            procs.append(spawn_worker(kernel, net, backend, 2, 1, None, (0, 8)))
            yield Delay(0.01)
            net.endpoint(0).send(CancelMsg(8), 2, Tag.CANCEL, nbytes=16.0, eager=True)
            yield Delay(0.1)
            shutdown(net.endpoint(1), 2)

        def stage_1():
            ep = net.endpoint(1)
            while True:
                msg = yield from ep.recv(2, Tag.CANCEL)
                relayed.append((kernel.now, msg.payload.run_id))
                if msg.payload.run_id == 8:
                    return

        procs = [proc, kernel.spawn(crash_and_respawn(), name="faults"),
                 kernel.spawn(stage_1(), name="stage-1")]
        run_to_completion(kernel, procs)
        # The cancel that landed while the rank was down sat in its fresh
        # mailbox; the respawned worker relays it as it re-arms, then
        # relays the next one on arrival.
        assert [rid for _, rid in relayed] == [7, 8]
        assert relayed[0][0] > 0.11
