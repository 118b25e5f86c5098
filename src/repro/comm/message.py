"""Message records and the tag space.

Tags mirror the transaction types of the reference implementation: one tag
per transaction type, so that all sends within a transaction share the
type's tag and inherit MPI's non-overtaking guarantee (paper Section
IV-A2), plus out-of-band tags for cancels and logits.  There is no
transaction-start tag: the start marker is a modelled announcement, not a
message (see :mod:`repro.comm.transactions`), and the tag a piece travels
on tells its transaction type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

#: Wildcards accepted by receive and probe operations.
ANY_SOURCE = -1
ANY_TAG = -1


class Tag(enum.IntEnum):
    """MPI tag space used by all engines."""

    #: Decode transaction traffic: run metadata, then activation tensors.
    DECODE = 2
    #: Pipelined KV-cache operation commands.
    CACHE_OP = 3
    #: Early-inference-cancellation signals (back-propagated).
    CANCEL = 4
    #: Final logits returned to the head node.
    LOGITS = 5
    #: Engine control (shutdown at end of generation).
    CONTROL = 6
    #: Fused multi-run window forwarded between pipeline workers: one
    #: transaction carrying several runs' metas/activations plus any
    #: cache-op batches interleaved between them, in dispatch order.
    FUSED = 7


@dataclass
class Message:
    """A delivered point-to-point message.

    Attributes:
        src: sender rank.
        dst: receiver rank.
        tag: the :class:`Tag` value it was sent with.
        payload: arbitrary Python object (the simulation does not serialize;
            ``nbytes`` carries the modeled wire size).
        nbytes: modeled serialized size in bytes, used for link timing.
        seq: per-(src, dst, tag) sequence number assigned at send time;
            enforces non-overtaking delivery.
        sent_at: simulated send timestamp.
        delivered_at: simulated arrival timestamp (set by the network).
    """

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: float
    seq: int = 0
    sent_at: float = 0.0
    delivered_at: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = Tag(self.tag).name if self.tag in Tag._value2member_map_ else self.tag
        return (
            f"Message({self.src}->{self.dst} {name} seq={self.seq}"
            f" nbytes={self.nbytes:.0f})"
        )
