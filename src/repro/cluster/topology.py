"""Cluster topology: a set of nodes plus the links between them.

All of the paper's testbeds are switched fabrics (Ethernet switch or an
InfiniBand switch), so any node can message any other; contention is
modeled at the *sender egress* and *receiver ingress* ports, which is where
switched fabrics actually serialize.  A ``Cluster`` therefore materializes
one egress :class:`~repro.cluster.interconnect.Link` per ordered node pair,
lazily.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.hardware import NodeSpec
from repro.cluster.interconnect import Link, LinkSpec, LOOPBACK
from repro.cluster.kernel import SimKernel


class Cluster:
    """A simulated cluster: node specs wired by a uniform link spec.

    Attributes:
        name: testbed name (``"A"``, ``"B"``, ``"C"``, ``"gpu"`` ...).
        nodes: node specifications, index == rank.
        link_spec: interconnect used between distinct nodes.
        link_overrides: optional per-ordered-pair link specs — lets a
            heterogeneous topology (e.g. a cloud-edge WAN hop between two
            otherwise LAN-connected stages) override the uniform spec.
    """

    def __init__(
        self,
        name: str,
        nodes: Sequence[NodeSpec],
        link_spec: LinkSpec,
        link_overrides: Optional[Dict[Tuple[int, int], LinkSpec]] = None,
    ) -> None:
        if not nodes:
            raise ValueError("cluster needs at least one node")
        self.name = name
        self.nodes: List[NodeSpec] = list(nodes)
        self.link_spec = link_spec
        self.link_overrides: Dict[Tuple[int, int], LinkSpec] = dict(link_overrides or {})
        self._kernel: SimKernel | None = None
        self._links: Dict[Tuple[int, int], Link] = {}
        #: Optional hook replacing plain Link construction — the fault
        #: injector installs one to wrap faulty pairs.  Reset on every
        #: ``bind`` so a cluster reused across simulations starts clean.
        self._link_factory: Optional[Callable[[SimKernel, LinkSpec, int, int], Link]] = None

    @property
    def size(self) -> int:
        return len(self.nodes)

    def bind(self, kernel: SimKernel) -> "Cluster":
        """Attach this topology to a simulation kernel (fresh link state)."""
        self._kernel = kernel
        self._links = {}
        self._link_factory = None
        return self

    def link(self, src: int, dst: int) -> Link:
        """The egress link from rank ``src`` toward rank ``dst``.

        Messages a rank sends to itself use a zero-cost loopback link.
        """
        if self._kernel is None:
            raise RuntimeError("cluster not bound to a kernel; call bind() first")
        key = (src, dst)
        found = self._links.get(key)
        if found is None:
            if src == dst:
                spec = LOOPBACK
            else:
                spec = self.link_overrides.get(key, self.link_spec)
            factory = self._link_factory
            if factory is None:
                found = Link(self._kernel, spec)
            else:
                found = factory(self._kernel, spec, src, dst)
            self._links[key] = found
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster({self.name!r}, n={self.size}, link={self.link_spec.name!r})"
