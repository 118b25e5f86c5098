"""Topology and testbed catalogs (paper Tables II and IV)."""

import pytest

from repro.cluster.hardware import (
    AMD_MI60,
    NVIDIA_RTX_3090,
    OPTIPLEX_I5_GEN2,
    XEON_E5_2650,
    XEON_GOLD_6140,
)
from repro.cluster.kernel import SimKernel
from repro.cluster.testbed import cluster_a, cluster_b, cluster_c, gpu_testbed, make_testbed
from repro.cluster.topology import Cluster
from repro.cluster.interconnect import GIGABIT_ETHERNET
from repro.util.units import GiB


class TestHardware:
    def test_dual_socket_bandwidth_aggregation(self):
        single = XEON_GOLD_6140.mem_bw * XEON_GOLD_6140.bw_efficiency
        assert XEON_GOLD_6140.effective_mem_bw == pytest.approx(single * 1.9)

    def test_gpu_single_socket(self):
        assert AMD_MI60.effective_mem_bw == pytest.approx(
            AMD_MI60.mem_bw * AMD_MI60.bw_efficiency
        )

    def test_gold_faster_than_e5(self):
        assert XEON_GOLD_6140.effective_mem_bw > XEON_E5_2650.effective_mem_bw

    def test_optiplex_slowest(self):
        assert OPTIPLEX_I5_GEN2.effective_mem_bw < XEON_E5_2650.effective_mem_bw

    def test_gpu_overhead_below_cpu(self):
        assert NVIDIA_RTX_3090.compute_overhead < XEON_E5_2650.compute_overhead


class TestTestbeds:
    def test_cluster_a_spec(self):
        c = cluster_a()
        assert c.size == 8
        assert all(n is XEON_E5_2650 for n in c.nodes)
        assert c.link_spec is GIGABIT_ETHERNET
        assert c.nodes[0].ram == 128 * GiB

    def test_cluster_b_heterogeneous_13(self):
        c = cluster_b()
        assert c.size == 13
        assert sum(1 for n in c.nodes if n is XEON_E5_2650) == 8
        assert len({n.name for n in c.nodes}) == 3

    def test_cluster_b_prefix_homogeneous(self):
        c = cluster_b(8)
        assert all(n is XEON_E5_2650 for n in c.nodes)

    def test_cluster_c_spec(self):
        c = cluster_c()
        assert c.size == 32
        assert all(n is XEON_GOLD_6140 for n in c.nodes)
        assert c.link_spec.name.startswith("InfiniBand EDR")

    def test_gpu_testbed_heterogeneous(self):
        c = gpu_testbed()
        assert c.size == 4
        assert len({n.name for n in c.nodes}) == 4
        assert all(n.is_gpu for n in c.nodes)

    def test_node_limits(self):
        with pytest.raises(ValueError):
            cluster_a(9)
        with pytest.raises(ValueError):
            cluster_b(14)
        with pytest.raises(ValueError):
            cluster_c(33)

    def test_make_testbed_factory(self):
        assert make_testbed("A", 4).size == 4
        assert make_testbed("c").size == 32
        assert make_testbed("gpu").size == 4
        with pytest.raises(KeyError):
            make_testbed("z")
        with pytest.raises(ValueError):
            make_testbed("gpu", 2)


class TestTopology:
    def test_link_requires_bind(self):
        c = cluster_a(2)
        with pytest.raises(RuntimeError):
            c.link(0, 1)

    def test_self_link_is_loopback(self):
        c = cluster_a(2).bind(SimKernel())
        assert c.link(0, 0).spec.name == "loopback"
        assert c.link(0, 1).spec is GIGABIT_ETHERNET

    def test_links_cached_per_direction(self):
        c = cluster_a(2).bind(SimKernel())
        assert c.link(0, 1) is c.link(0, 1)
        assert c.link(0, 1) is not c.link(1, 0)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster("x", [], GIGABIT_ETHERNET)
