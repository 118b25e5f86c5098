"""Simulated MPI message passing.

PipeInfer's correctness argument leans on one documented MPI property:
point-to-point messages with the same (sender, receiver, tag) are
*non-overtaking* (MPI 4.1 section 3.5).  Its transaction protocol (paper
Fig. 2) serializes pipeline operations on top of that guarantee.  This
package reimplements exactly that contract over the discrete-event kernel:

- :mod:`repro.comm.message` — message record and the tag space;
- :mod:`repro.comm.mpi_sim` — :class:`Network` (one per simulation) and
  :class:`Endpoint` (one per rank) with buffered sends, non-blocking
  receives and probes, delivery listeners, and per-(src, dst, tag)
  in-order delivery;
- :mod:`repro.comm.payloads` — typed payload records with explicit wire
  sizes;
- :mod:`repro.comm.transactions` — PipeInfer's ordered transaction framing.
"""

from repro.comm.message import ANY_SOURCE, ANY_TAG, Message, Tag
from repro.comm.mpi_sim import Endpoint, Network
from repro.comm.transactions import TransactionType, send_transaction

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "Tag",
    "Endpoint",
    "Network",
    "TransactionType",
    "send_transaction",
]
