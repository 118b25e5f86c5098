"""Deadlock diagnostics: StuckSimulationError names who waits on what."""

import pytest

from repro.cluster.kernel import (
    SimError,
    SimKernel,
    StuckSimulationError,
    run_to_completion,
)
from repro.cluster.testbed import cluster_c
from repro.comm.message import Tag
from repro.comm.mpi_sim import Network
from repro.comm.transactions import START_NBYTES, TransactionType
from oracles.blocking import recv
from oracles.sim_kernel import ReferenceSimKernel
from tests.integration.test_worker_protocol import decode_pieces, setup_worker


def test_stuck_is_a_sim_error():
    """Existing ``except SimError`` handlers and tests keep working."""
    assert issubclass(StuckSimulationError, SimError)


def test_names_process_and_future_label():
    k = SimKernel()
    fut = k.future("never-resolved")

    def stuck():
        yield fut

    p = k.spawn(stuck(), name="stuck-proc")
    with pytest.raises(StuckSimulationError, match="stuck-proc") as exc:
        run_to_completion(k, [p])
    assert "never-resolved" in str(exc.value)
    assert exc.value.stuck == [p]


def test_blocked_recv_names_source_and_tag():
    """A receive nothing matches reports its (source, tag) and rank."""
    k = SimKernel()
    net = Network(k, cluster_c(2))

    def receiver():
        yield from recv(net.endpoint(1), 0, Tag.LOGITS)

    p = k.spawn(receiver(), name="head-loop")
    with pytest.raises(StuckSimulationError) as exc:
        run_to_completion(k, [p])
    msg = str(exc.value)
    assert "'head-loop'" in msg
    assert "source=0" in msg and f"tag={int(Tag.LOGITS)}" in msg
    assert "rank 1" in msg


def test_every_stuck_process_is_listed():
    k = SimKernel()
    net = Network(k, cluster_c(3))

    def waits_on(rank, src):
        yield from recv(net.endpoint(rank), src, Tag.DECODE)

    procs = [
        k.spawn(waits_on(1, 0), name="worker-1"),
        k.spawn(waits_on(2, 1), name="worker-2"),
    ]
    with pytest.raises(StuckSimulationError) as exc:
        run_to_completion(k, procs)
    msg = str(exc.value)
    assert "'worker-1'" in msg and "'worker-2'" in msg
    assert set(exc.value.stuck) == set(procs)


def test_parked_worker_names_the_piece_it_waits_for():
    """A pipeline worker parks once, on its done future, yet a deadlock
    still reports the rank, source and tag of the piece it waits for."""
    kernel, net, backend, _, _, proc = setup_worker()
    (meta, meta_nbytes), _ = decode_pieces(backend, 1, [3], 2, 0, False, [1, 2, 3])
    # A DECODE run whose activations never follow its meta piece.
    ep = net.endpoint(0)
    ep.announce(1, TransactionType.DECODE, START_NBYTES)
    ep.send(meta, 1, Tag.DECODE, nbytes=meta_nbytes)
    with pytest.raises(StuckSimulationError) as exc:
        run_to_completion(kernel, [proc])
    msg = str(exc.value)
    assert "'worker-1'" in msg
    assert f"recv(source=0, tag={int(Tag.DECODE)}) at rank 1" in msg
    assert exc.value.stuck == [proc]


def test_idle_worker_names_every_piece_tag():
    """An idle worker waits for the first piece of any transaction kind,
    from any sender."""
    kernel, _, _, _, _, proc = setup_worker()
    with pytest.raises(StuckSimulationError) as exc:
        run_to_completion(kernel, [proc])
    msg = str(exc.value)
    assert "'worker-1'" in msg and "probe(source=-1" in msg and "rank 1" in msg
    for tag in (Tag.DECODE, Tag.CACHE_OP, Tag.FUSED, Tag.CONTROL):
        assert repr(tag) in msg


def test_completed_processes_do_not_raise():
    k = SimKernel()

    def fine():
        yield from ()

    p = k.spawn(fine())
    run_to_completion(k, [p])  # no exception
    assert not p.alive


def test_reference_kernel_reports_waiting_on_too():
    """The reference heap kernel records the parked future as well."""
    k = ReferenceSimKernel()
    fut = k.future("ref-label")

    def stuck():
        yield fut

    p = k.spawn(stuck(), name="ref-proc")
    k.run()
    assert p.alive and p.waiting_on is fut
    with pytest.raises(StuckSimulationError, match="ref-label"):
        run_to_completion(k, [p])
