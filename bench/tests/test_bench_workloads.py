"""Tiny instances of the benchmark's workloads, their references and probes."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from bench import layers, run, workloads  # noqa: E402
from bench.tracer import Tracer  # noqa: E402
from repro import (  # noqa: E402
    GenerationJob,
    OracleBackend,
    SingleNodeEngine,
    cluster_c,
    get_pair,
    run_engine,
)

#: Sizes small enough for the whole module to run in a few seconds.
TINY = {
    "single_paper": dict(node_counts=(4,), pairs=("dolphin+tinyllama",), prompt_len=16,
                         n_generate=8),
    "functional_closed": dict(n_requests=3, n_generate=6, max_active=2, min_prompt=8),
    "chat_open": dict(n_sessions=2, n_generate=6, rates=(0.005,), nominal=0.005),
    # One request, still decoding when the edge worker crashes.
    "faulty_edge": dict(n_requests=1, n_generate=12),
}


def test_oracle_reference_matches_single_node_engine():
    pair = get_pair("dolphin+tinyllama")
    vocab = pair.target_arch.vocab
    for seed in (1, 2, 3):
        prompt = workloads.seeded_prompt(seed, 0, 24, vocab)
        cluster = cluster_c(1)
        report = run_engine(
            SingleNodeEngine, OracleBackend(pair, head_node=cluster.nodes[0], seed=seed),
            cluster, GenerationJob(prompt=prompt, n_generate=12),
        )
        assert report.tokens == workloads.oracle_reference(prompt, 12, seed, vocab)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_instance_matches_reference_and_reaches_its_probes(name):
    inputs = workloads.PREPARE[name](3, **TINY[name])
    tracer = Tracer()
    layers.install(tracer)
    try:
        result = workloads.RUN[name](inputs, workloads.Clock(tracer))
    finally:
        tracer.restore()
    ref = workloads.reference(name, inputs)
    expected = workloads.expected(name, inputs)
    assert set(result.outputs) == set(expected)
    assert all(result.outputs[key] == ref[ref_key] for key, (ref_key, _) in expected.items())
    assert result.host_s > 0 and result.speeds and result.ttfts and result.gaps
    assert layers.unused_probes(tracer, name) == []
    per_layer = layers.per_layer(tracer, result.layer)
    assert set(per_layer) == set(layers.PER_LAYER) - {"trace.overhead_frac"}


def test_every_probe_is_expected_somewhere():
    assert all(on for _, _, on in layers.SPANS + layers.COUNTS)


def test_benchmark_json_lists_the_metrics_the_benchmark_computes():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.END_TO_END
