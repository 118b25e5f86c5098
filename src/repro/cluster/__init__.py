"""Discrete-event cluster simulator.

This package is the substitute for the paper's physical testbeds (Table II
and Table IV).  It provides:

- :mod:`repro.cluster.kernel` — a discrete-event kernel (callbacks over
  an at-now FIFO and a timed-event heap, plus parked processes);
- :mod:`repro.cluster.hardware` — node specifications with a
  memory-bandwidth-dominated compute cost model;
- :mod:`repro.cluster.interconnect` — link models (Gigabit Ethernet,
  InfiniBand EDR/QDR) with latency, bandwidth serialization, and an eager
  lane for small control messages;
- :mod:`repro.cluster.topology` — a cluster wiring nodes with links;
- :mod:`repro.cluster.testbed` — the paper's clusters A, B, C and the GPU
  testbed, reconstructed from their published specs.
"""

from repro.cluster.kernel import Delay, Future, Process, SimKernel
from repro.cluster.hardware import NodeSpec, CPU_CATALOG, GPU_CATALOG
from repro.cluster.interconnect import LinkSpec, GIGABIT_ETHERNET, INFINIBAND_EDR, INFINIBAND_QDR
from repro.cluster.topology import Cluster
from repro.cluster.testbed import (
    cluster_a,
    cluster_b,
    cluster_c,
    gpu_testbed,
    make_testbed,
)

__all__ = [
    "Delay",
    "Future",
    "Process",
    "SimKernel",
    "NodeSpec",
    "CPU_CATALOG",
    "GPU_CATALOG",
    "LinkSpec",
    "GIGABIT_ETHERNET",
    "INFINIBAND_EDR",
    "INFINIBAND_QDR",
    "Cluster",
    "cluster_a",
    "cluster_b",
    "cluster_c",
    "gpu_testbed",
    "make_testbed",
]
