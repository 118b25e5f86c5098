"""Golden message consumption order of serving runs.

Link drains hand each same-instant delivery run to the destination
endpoint in one batch, scheduling at most one resume per parked
receiver.  That batching is pure mechanism: the order in which the
application consumes messages — the ``(rank, src, tag, seq)`` sequence
``Network.trace`` records — must stay exactly what it was when every
message carried its own delivery closure.  This suite pins that order
against ``consumption_golden.json`` for a fault-free run, under WAN loss
+ jitter (where retransmit watchdogs and acks interleave with data
deliveries and break up same-instant batches), and with a mid-stream
worker crash on top.

The trace is armed on the serving replica's network before any request
is submitted.  To re-record after a deliberate change::

    PYTHONPATH=src python tests/integration/test_batched_inbox.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from repro import (
    EngineConfig,
    GenerationJob,
    OracleBackend,
    PipeInferEngine,
    Workload,
    get_pair,
)
from repro.serve import EngineCluster
from repro.workloads import (
    cloud_edge_arrivals,
    cloud_edge_cluster,
    cloud_edge_fault_plan,
    cloud_edge_prompts,
)

GOLDEN = Path(__file__).with_name("consumption_golden.json")

N_CLOUD, N_EDGE = 2, 2
N_REQ = 4


def make_workload(pair):
    jobs = tuple(
        GenerationJob(prompt=p, n_generate=12)
        for p in cloud_edge_prompts(N_REQ, pair.target_arch.vocab, length=32)
    )
    return Workload(jobs=jobs, arrivals=cloud_edge_arrivals(N_REQ, seed=13))


def loss_plan(seed):
    return cloud_edge_fault_plan(
        seed=seed, n_cloud=N_CLOUD, n_edge=N_EDGE, loss_rate=0.05
    )


def crash_plan():
    return cloud_edge_fault_plan(
        seed=7, n_cloud=N_CLOUD, n_edge=N_EDGE, loss_rate=0.05,
        crash_rank=2, crash_at=1.0,
    )


def serve_traced(pair, workload, plan=None):
    """One serving run with the consumption-order trace armed."""
    backend = OracleBackend(pair, head_node=cloud_edge_cluster().nodes[0])
    cluster = EngineCluster(
        PipeInferEngine,
        [backend],
        [cloud_edge_cluster(N_CLOUD, N_EDGE)],
        config=EngineConfig(n_seq_partitions=24),
        fault_plans=[plan],
    )
    (replica,) = cluster.open(max_active=workload.max_active)
    trace = []
    replica.network.trace = trace
    for req in workload.requests():
        cluster.submit(req)
    cluster.close_and_drain()
    return cluster.report().merged, trace


PLANS = {
    "fault_free": lambda: None,
    "loss_jitter_11": lambda: loss_plan(11),
    "loss_jitter_29": lambda: loss_plan(29),
    "crash_recovery": crash_plan,
}


@pytest.fixture(scope="module")
def pair():
    return get_pair("dolphin+tinyllama")


@pytest.fixture(scope="module")
def workload(pair):
    return make_workload(pair)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def check(name, pair, workload, golden):
    report, trace = serve_traced(pair, workload, PLANS[name]())
    want = [tuple(entry) for entry in golden[name]]
    assert len(trace) > 0, "trace captured nothing — the suite is vacuous"
    assert trace == want, (
        f"{name}: consumption order diverged from golden at index "
        f"{next((i for i, (a, b) in enumerate(zip(trace, want)) if a != b), min(len(trace), len(want)))}"
    )
    return report


def test_fault_free_equivalence(pair, workload, golden):
    check("fault_free", pair, workload, golden)


@pytest.mark.parametrize("seed", [11, 29])
def test_equivalence_under_loss_and_jitter(pair, workload, golden, seed):
    """The risky path: retransmit/ack interleaving under WAN loss + jitter."""
    report = check(f"loss_jitter_{seed}", pair, workload, golden)
    # The plan must actually have exercised the recovery machinery, or
    # this proves nothing about the ack/retransmit interleaving.
    assert report.stats.retransmits > 0, "fault plan produced no retransmits"


def test_equivalence_under_crash_recovery(pair, workload, golden):
    """Loss + jitter + a mid-stream worker crash: the full fault plane."""
    report = check("crash_recovery", pair, workload, golden)
    assert report.stats.worker_restarts >= 1, "crash plan produced no restart"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    p = get_pair("dolphin+tinyllama")
    w = make_workload(p)
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(name)}: {json.dumps(serve_traced(p, w, plan())[1])}"
            for name, plan in PLANS.items()
        )
        + "\n}\n"
    )
