"""The fusion ridge: the widest batch a stage evaluates bandwidth-bound.

Each row derives the ridge from the roofline's own two terms — the
largest batch whose ``mem_time`` still covers its ``compute_time`` — and
checks that the cost model, and the backend that exposes it per stage,
report that number.
"""

import pytest

from repro.cluster.hardware import OPTIPLEX_I7_GEN4, XEON_E5_2650, XEON_GOLD_6140
from repro.engines.backend import COST_CONTEXT, OracleBackend
from repro.models.cost import CostModel
from repro.models.zoo import CPU_PAIRS, get_pair
from repro.pipeline.partition import partition_for
from repro.workloads.cloudedge import cloud_edge_cluster

#: The Fig. 4 grid's six CPU pairs (Table I).
FIG4_PAIRS = sorted(CPU_PAIRS)


def derived_ridge(cost: CostModel, node) -> int:
    """Largest n whose layer is bandwidth-bound, at least 1."""
    n = 1
    while True:
        mem, comp = cost.roofline(node, n + 1)
        if mem < comp:
            return n
        n += 1


def pair_cost(key: str) -> CostModel:
    return CostModel(get_pair(key).target_arch, context=COST_CONTEXT)


@pytest.mark.parametrize(
    "key,node,expected",
    [(key, XEON_GOLD_6140, 2) for key in FIG4_PAIRS]
    + [(key, XEON_E5_2650, 1) for key in FIG4_PAIRS],
)
def test_ridge_table(key, node, expected):
    cost = pair_cost(key)
    assert derived_ridge(cost, node) == expected
    assert cost.fusion_ridge(node) == expected


def test_ridge_is_where_compute_overtakes_memory():
    """At the ridge the layer time is still the memory term; one token
    more and it is the compute term."""
    cost = pair_cost("dolphin+tinyllama")
    mem, comp = cost.roofline(XEON_GOLD_6140, 2)
    assert mem >= comp and cost.layer_time(XEON_GOLD_6140, 2) == mem
    mem, comp = cost.roofline(XEON_GOLD_6140, 3)
    assert mem < comp and cost.layer_time(XEON_GOLD_6140, 3) == comp


def test_e5_2650_is_compute_bound_from_the_first_token():
    """Cluster A's ridge is 1 because one token already costs compute."""
    for key in FIG4_PAIRS:
        mem, comp = pair_cost(key).roofline(XEON_E5_2650, 1)
        assert mem < comp


def test_edge_cluster_ridges_per_stage():
    """The cloud-edge pipeline: 3 on the cloud Xeons, 2 on the Optiplex."""
    cluster = cloud_edge_cluster(3, 1)
    pair = get_pair("qwen+7b")
    backend = OracleBackend(pair, head_node=cluster.nodes[0])
    stages = cluster.nodes[1:]
    parts = partition_for(backend.n_target_layers, stages)
    ridges = [backend.fusion_ridge(node, part) for node, part in zip(stages, parts)]
    assert stages[-1] is OPTIPLEX_I7_GEN4
    assert ridges == [3, 3, 2]
    cost = pair_cost("qwen+7b")
    assert ridges == [derived_ridge(cost, node) for node in stages]


def test_fixed_stage_time_has_no_ridge(functional_backend):
    """The functional backend's stage time does not grow with width."""
    assert functional_backend.fusion_ridge(XEON_GOLD_6140, (0, 2)) is None
