"""Analytic cost model behaviour."""

import pytest

from repro.cluster.hardware import XEON_E5_2650, XEON_GOLD_6140, NVIDIA_RTX_3090
from repro.models.cost import CostModel
from repro.models.zoo import get_model


@pytest.fixture()
def dolphin_cost():
    return CostModel(get_model("dolphin-70b"))


@pytest.fixture()
def tiny_cost():
    return CostModel(get_model("tinyllama-1.1b"))


class TestLayerTime:
    def test_single_token_is_bandwidth_bound(self, dolphin_cost):
        """For batch 1 the layer time equals the weight-streaming time."""
        t1 = dolphin_cost.layer_time(XEON_GOLD_6140, 1)
        t2 = dolphin_cost.layer_time(XEON_GOLD_6140, 2)
        # Bandwidth-bound: doubling the batch barely changes the time.
        assert t2 < 1.35 * t1

    def test_large_batch_goes_compute_bound(self, dolphin_cost):
        """Oversized batches cross into the compute-bound regime (IV-B1)."""
        t1 = dolphin_cost.layer_time(XEON_GOLD_6140, 1)
        t16 = dolphin_cost.layer_time(XEON_GOLD_6140, 16)
        assert t16 > 2.5 * t1

    def test_faster_node_is_faster(self, dolphin_cost):
        assert dolphin_cost.layer_time(XEON_GOLD_6140, 1) < dolphin_cost.layer_time(
            XEON_E5_2650, 1
        )

    def test_gpu_much_faster(self, dolphin_cost):
        assert dolphin_cost.layer_time(NVIDIA_RTX_3090, 1) < 0.2 * dolphin_cost.layer_time(
            XEON_GOLD_6140, 1
        )

    def test_invalid_batch(self, dolphin_cost):
        with pytest.raises(ValueError):
            dolphin_cost.layer_time(XEON_GOLD_6140, 0)

    def test_realistic_70b_throughput(self, dolphin_cost):
        """Full-model single-token pass lands in the llama.cpp ballpark
        (roughly 0.3-1.5 s/token for 70B Q3 on a 2x Xeon Gold box)."""
        t = dolphin_cost.full_model_time(XEON_GOLD_6140, 1)
        assert 0.2 < t < 1.5

    def test_draft_much_cheaper(self, dolphin_cost, tiny_cost):
        assert tiny_cost.full_model_time(XEON_GOLD_6140, 1) < 0.1 * (
            dolphin_cost.full_model_time(XEON_GOLD_6140, 1)
        )


class TestStageAndSizes:
    def test_stage_time_scales_with_layers(self, dolphin_cost):
        t10 = dolphin_cost.stage_time(XEON_GOLD_6140, 10, 1)
        t20 = dolphin_cost.stage_time(XEON_GOLD_6140, 20, 1)
        assert t20 > 1.8 * t10

    def test_empty_stage_costs_overhead_only(self, dolphin_cost):
        assert dolphin_cost.stage_time(XEON_GOLD_6140, 0, 1) == (
            XEON_GOLD_6140.compute_overhead
        )

    def test_activation_bytes(self, dolphin_cost):
        assert dolphin_cost.activation_bytes(4) == 4 * 8192 * 4.0

    def test_logits_bytes(self, dolphin_cost):
        assert dolphin_cost.logits_bytes(2) == 2 * 32000 * 4.0

    def test_weights_bytes_full_vs_shard(self, dolphin_cost):
        full = dolphin_cost.weights_bytes()
        shard = dolphin_cost.weights_bytes(40)
        assert shard < full
        assert shard == pytest.approx(40 * get_model("dolphin-70b").bytes_per_layer)

    def test_kv_bytes(self, dolphin_cost):
        arch = get_model("dolphin-70b")
        assert dolphin_cost.kv_bytes(80, 1000) == (
            80 * 1000 * arch.kv_bytes_per_token_per_layer
        )

