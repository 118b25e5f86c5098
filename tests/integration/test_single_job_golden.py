"""Golden single-job pin: every ``EngineReport`` field of a PipeInfer job.

A single job runs as a one-request queue on a serving
:class:`~repro.serve.cluster.Replica`, through the one serving head
(``serve/head.py``'s ``serving_head``).  Rewrites of that path
must not move a single simulated number.  This suite runs a fixed set of
single-job PipeInfer generations through :func:`run_engine` and compares
``dataclasses.asdict`` of each report against values committed in
``single_job_golden.json``:

- the 24 Figure 4 cells (every ``SUBFIGURES`` pair on testbed C with
  4, 8, 15 and 32 nodes);
- two cells each of the Figure 8 ablations (``enable_continuous=False``
  and ``enable_cancellation=False``), and one cell whose cutoff never
  decays (``cutoff_decay=0``: a halted draft never clears by itself);
- one job on the functional backend (real tiny-transformer math).

Two more tests pin the event economy on every Figure 4 cell: the whole
simulation resumes its processes fewer times than it delivers messages,
which a head that polls on a timer cannot do, and at most twice per
process, which holds only while the head and every worker park once.

Floats compare exactly (JSON round-trips a Python float bit for bit);
NaN and infinities are stored as strings so they compare equal to
themselves.  To re-record after a deliberate change::

    PYTHONPATH=src python tests/integration/test_single_job_golden.py --record
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from repro import (
    EngineConfig,
    FunctionalBackend,
    GenerationJob,
    OracleBackend,
    PipeInferEngine,
    TinyTransformer,
    TransformerConfig,
    get_pair,
    run_engine,
)
from repro.cluster.testbed import make_testbed
from repro.experiments.fig4 import SUBFIGURES
from repro.models.transformer import perturbed_copy
from repro.serve.cluster import Replica
from repro.serve.scheduler import Request
from repro.spec.draft import DraftParams
from repro.workloads.prompts import make_prompt

GOLDEN = Path(__file__).with_name("single_job_golden.json")

NODE_COUNTS = (4, 8, 15, 32)
PROMPT_LEN = 64
N_GENERATE = 48

#: (pair key, node count), in Figure 4 order.
FIG4_CELLS = [
    (key, n) for group in SUBFIGURES.values() for key, _ in group for n in NODE_COUNTS
]

#: Non-default configs: name -> (pair key, node count, config changes).
CONFIG_CELLS = {
    "no_continuous/dolphin+tinyllama/8": (
        "dolphin+tinyllama", 8, {"enable_continuous": False}
    ),
    "no_continuous/falcon+7b/15": ("falcon+7b", 15, {"enable_continuous": False}),
    "no_cancellation/dolphin+tinyllama/8": (
        "dolphin+tinyllama", 8, {"enable_cancellation": False}
    ),
    "no_cancellation/goliath+xwin7b/32": (
        "goliath+xwin7b", 32, {"enable_cancellation": False}
    ),
    "no_decay/dolphin+tinyllama/4": ("dolphin+tinyllama", 4, {"cutoff_decay": 0.0}),
}


def canonical(obj):
    """JSON-stable form: string keys, lists for tuples, NaN/inf as text."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _cell(key, n, index):
    """(backend, cluster, job) of one oracle cell; seeds cycle 1001/2001/3001."""
    pair = get_pair(key)
    cluster = make_testbed("C", n)
    backend = OracleBackend(
        pair, head_node=cluster.nodes[0], seed=1001 + 1000 * (index % 3)
    )
    prompt = make_prompt("wikitext", PROMPT_LEN, pair.target_arch.vocab)
    return backend, cluster, GenerationJob(prompt=prompt, n_generate=N_GENERATE)


def _oracle_run(key, n, index, changes=None):
    def run():
        backend, cluster, job = _cell(key, n, index)
        config = EngineConfig().ablated(**changes) if changes else None
        report = run_engine(PipeInferEngine, backend, cluster, job, config)
        return canonical(dataclasses.asdict(report))

    return run


def run_functional():
    """A PipeInfer job on the tiny transformer.  The 0.1 cutoff sits above
    most of the tiny draft's flat confidences, so drafting often halts and
    the cutoff decays until a proposal clears it: the idle path under the
    real draft model."""
    target = TinyTransformer(
        TransformerConfig(
            vocab=128, d_model=32, n_layers=4, n_heads=4, n_kv_heads=2, d_ff=64,
            seed=7,
        )
    )
    backend = FunctionalBackend(
        target, perturbed_copy(target, noise=0.15, seed=9), n_cells=512
    )
    config = EngineConfig(
        draft=DraftParams(max_tokens=4, cutoff=0.1),
        cutoff_recovery=0.01,
        cutoff_decay=0.01,
    )
    job = GenerationJob(prompt=(1, 5, 9, 13, 17, 21, 25, 29), n_generate=24)
    report = run_engine(PipeInferEngine, backend, make_testbed("C", 4), job, config)
    return canonical(dataclasses.asdict(report))


RUNS = {
    **{
        f"pipe/{key}/{n}": _oracle_run(key, n, i)
        for i, (key, n) in enumerate(FIG4_CELLS)
    },
    **{
        name: _oracle_run(key, n, i, changes)
        for i, (name, (key, n, changes)) in enumerate(CONFIG_CELLS.items())
    },
    "functional": run_functional,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(RUNS))
def test_report_matches_golden(name, golden):
    got = RUNS[name]()
    want = golden[name]
    if got != want:
        diffs = sorted(
            k for k in set(got) | set(want) if got.get(k) != want.get(k)
        )
        pytest.fail(f"{name}: report diverged from golden in {diffs}")


def _drained_cell(index: int) -> Replica:
    """Fig. 4 cell ``index`` served to completion the way :func:`run_engine`
    serves it, on a replica whose kernel and network stay readable."""
    key, n = FIG4_CELLS[index]
    backend, cluster, job = _cell(key, n, index)
    replica = Replica(0, PipeInferEngine, backend, cluster)
    replica.start()
    replica.admit(Request(0, job, 0.0))
    replica.drain()
    (request,) = replica.engine.request_reports
    assert len(request.tokens) == N_GENERATE
    return replica


@pytest.mark.parametrize("index", range(len(FIG4_CELLS)))
def test_head_does_not_poll(index):
    """Fewer process resumes than delivered messages, whole simulation.

    Every head wake-up is caused by a message, the end of a draft round or
    a sampling delay; a timed poll costs a resume per tick, hundreds per
    message on small clusters.
    """
    key, n = FIG4_CELLS[index]
    replica = _drained_cell(index)
    kernel, network = replica.kernel, replica.network
    ratio = kernel.n_resumes / network.n_delivered
    assert ratio < 1.0, (
        f"{key}/{n}: {kernel.n_resumes} resumes for "
        f"{network.n_delivered} delivered messages ({ratio:.2f})"
    )


@pytest.mark.parametrize("index", range(len(FIG4_CELLS)))
def test_every_process_parks_once(index):
    """At most two resumes per spawned process, whatever the traffic.

    The head and every pipeline worker are event-driven state machines:
    each process runs its first step, parks once on a done future, and
    resumes once more to finish.  A process that parked per message or
    per transaction would resume thousands of times on these cells.
    """
    key, n = FIG4_CELLS[index]
    kernel = _drained_cell(index).kernel
    n_procs = len(kernel._processes)
    assert kernel.n_resumes <= 2 * n_procs, (
        f"{key}/{n}: {kernel.n_resumes} resumes for {n_procs} processes"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    GOLDEN.write_text(
        json.dumps({name: run() for name, run in RUNS.items()}, indent=1) + "\n"
    )
