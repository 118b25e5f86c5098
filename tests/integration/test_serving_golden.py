"""Golden serving pin: every ``ServingReport`` field of a fixed set of runs.

Refactors of the serving layer (schedulers, entry points, the cluster
driver) must not move a single report number.  This suite serves a small
fixed set of workloads and compares ``dataclasses.asdict`` of each report
against values committed in ``serving_golden.json``:

- PipeInfer on a small closed loop;
- PipeInfer on an open loop under loss + jitter + a worker crash;
- a multi-turn stream with the cross-request prefix cache on;
- the Speculative and Iterative baselines (``n_resumes`` excluded: it
  counts head-process wake-ups, a property of the driver, not of the
  served stream);
- K=3 ``round_robin`` and ``prompt_hash`` clusters (merged report plus
  every replica's own report and the routing record).

Floats compare exactly (JSON round-trips a Python float bit for bit);
NaN and infinities are stored as strings so they compare equal to
themselves.  To re-record after a deliberate change::

    PYTHONPATH=src python tests/integration/test_serving_golden.py --record
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from repro import (
    ClusterConfig,
    EngineConfig,
    GenerationJob,
    IterativeEngine,
    OracleBackend,
    PipeInferEngine,
    SpeculativeEngine,
    Workload,
    cluster_c,
    get_pair,
    run_cluster,
    run_serving,
)
from repro.workloads import (
    MultiTurnTemplate,
    cloud_edge_arrivals,
    cloud_edge_cluster,
    cloud_edge_fault_plan,
    cloud_edge_prompts,
    make_prompt,
    multiturn_arrivals,
)

GOLDEN = Path(__file__).with_name("serving_golden.json")

PAIR = "dolphin+tinyllama"
N_CLOUD, N_EDGE = 2, 2


def canonical(obj):
    """JSON-stable form: string keys, lists for tuples, NaN/inf as text."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def report_fields(report, exclude=()):
    fields = dataclasses.asdict(report)
    for name in exclude:
        fields.pop(name)
    return canonical(fields)


def _closed_jobs(pair, n):
    kinds = ("wikitext", "code", "explain", "paper", "roleplay", "story")
    return tuple(
        GenerationJob(
            prompt=make_prompt(
                kinds[i % len(kinds)], length=24 + 4 * i,
                vocab=pair.target_arch.vocab,
            ),
            n_generate=12,
        )
        for i in range(n)
    )


def _oracle(pair, n_nodes=4):
    cluster = cluster_c(n_nodes)
    return OracleBackend(pair, head_node=cluster.nodes[0]), cluster


def _multiturn(pair, turn_gap=40.0):
    tmpl = MultiTurnTemplate(n_turns=3, seed=5)
    n_sessions = 4
    return Workload(
        jobs=tuple(
            GenerationJob(prompt=p, n_generate=12)
            for p in tmpl.prompts(n_sessions, pair.target_arch.vocab)
        ),
        arrivals=multiturn_arrivals(
            n_sessions, 3, turn_gap=turn_gap, session_rate=0.5, seed=9
        ),
        sessions=tmpl.sessions(n_sessions),
    )


def run_pipeinfer_closed(pair):
    backend, cluster = _oracle(pair)
    workload = Workload(jobs=_closed_jobs(pair, 6), max_active=4)
    return report_fields(run_serving(PipeInferEngine, backend, cluster, workload))


def run_pipeinfer_crash(pair):
    jobs = tuple(
        GenerationJob(prompt=p, n_generate=16)
        for p in cloud_edge_prompts(4, pair.target_arch.vocab, length=32)
    )
    workload = Workload(jobs=jobs, arrivals=cloud_edge_arrivals(4, seed=21))
    plan = cloud_edge_fault_plan(
        seed=1, n_cloud=N_CLOUD, n_edge=N_EDGE, loss_rate=0.05,
        crash_rank=N_CLOUD, crash_at=1.0,
    )
    backend = OracleBackend(pair, head_node=cloud_edge_cluster().nodes[0])
    report = run_serving(
        PipeInferEngine, backend, cloud_edge_cluster(N_CLOUD, N_EDGE),
        workload, fault_plan=plan,
    )
    return report_fields(report)


def run_multiturn_prefix(pair):
    backend, cluster = _oracle(pair)
    report = run_serving(
        PipeInferEngine, backend, cluster, _multiturn(pair, turn_gap=240.0),
        config=EngineConfig(prefix_cache=True),
    )
    return report_fields(report)


def _baseline(engine):
    def run(pair):
        backend, cluster = _oracle(pair)
        workload = Workload(jobs=_closed_jobs(pair, 3))
        report = run_serving(engine, backend, cluster, workload)
        return report_fields(report, exclude=("n_resumes",))

    return run


def _cluster(routing):
    def run(pair):
        bundles = [_oracle(pair) for _ in range(3)]
        report = run_cluster(
            PipeInferEngine,
            [b for b, _ in bundles],
            [c for _, c in bundles],
            _multiturn(pair),
            cluster_config=ClusterConfig(
                n_replicas=3, routing=routing, affinity="none"
            ),
            config=EngineConfig(prefix_cache=True),
        )
        return {
            "merged": report_fields(report.merged),
            "per_replica": [report_fields(r) for r in report.per_replica],
            "assignments": canonical(report.assignments),
            "routed": report.routed,
        }

    return run


RUNS = {
    "pipeinfer_closed": run_pipeinfer_closed,
    "pipeinfer_crash": run_pipeinfer_crash,
    "multiturn_prefix": run_multiturn_prefix,
    "speculative": _baseline(SpeculativeEngine),
    "iterative": _baseline(IterativeEngine),
    "cluster_round_robin": _cluster("round_robin"),
    "cluster_prompt_hash": _cluster("prompt_hash"),
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def pair():
    return get_pair(PAIR)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name, pair, golden):
    got = RUNS[name](pair)
    want = golden[name]
    if got != want:
        diffs = sorted(
            k for k in set(got) | set(want) if got.get(k) != want.get(k)
        )
        pytest.fail(f"{name}: report diverged from golden in {diffs}")


@pytest.mark.parametrize(
    "name", ["pipeinfer_closed", "pipeinfer_crash", "multiturn_prefix", "cluster_prompt_hash"]
)
def test_chain_starts_with_accepted_on_verify(name, pair, golden, verify_entry_checks):
    """Every verification finds the chain starting with the accepted
    stream (what the O(new tokens) reconcile relies on), and checking it
    leaves the report on its golden."""
    assert RUNS[name](pair) == golden[name]
    assert verify_entry_checks


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    p = get_pair(PAIR)
    GOLDEN.write_text(
        json.dumps({name: run(p) for name, run in sorted(RUNS.items())}, indent=1)
        + "\n"
    )
