"""Typed message payloads exchanged by the inference engines.

Every payload carries an explicit ``nbytes`` — the modeled serialized size
used for link timing.  Decode payloads compute theirs from the model's
cost descriptor (activation width, vocabulary size); the fixed-size
control payloads (:class:`CacheOp`, :class:`CancelMsg`,
:class:`ShutdownMsg`) define theirs once, as a class constant.  The
simulation passes the Python object through unserialized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, ClassVar, List, Optional


@dataclass
class TokenSlot:
    """One token position within a decode batch.

    Attributes:
        token: vocabulary id.
        pos: absolute position in the generated sequence.
        seq_ids: KV-cache sequences the token's cell belongs to (tree nodes
            shared by several branches carry every branch's id; chains carry
            one).  The first entry is the *primary* sequence used as the
            attention query's view.
        want_logits: whether the head needs logits for this slot (all slots
            in verification batches; the last slot in plain decode).
    """

    token: int
    pos: int
    seq_ids: tuple
    want_logits: bool = True

    @property
    def primary_seq(self) -> int:
        return self.seq_ids[0]


@dataclass
class DecodeMeta:
    """Run configuration sent down the pipeline before activations.

    Mirrors the paper's "configuration data ... detailing information such
    as the batch size and the array of sequences per token" (IV-A1).
    ``oracle_states`` carries the per-slot rolling prefix state in
    performance mode (O(1) wire size per slot) so the last rank can
    materialize target logits without the full prefix.
    """

    run_id: int
    slots: List[TokenSlot]
    is_speculative: bool
    nbytes: float = 64.0
    oracle_states: Optional[List[int]] = None

    @property
    def n_tokens(self) -> int:
        return len(self.slots)

    def positions(self) -> List[int]:
        return [s.pos for s in self.slots]


@dataclass
class Activations:
    """Hidden-state tensor forwarded between pipeline stages.

    ``hidden`` is populated only in functional (real-transformer) mode; in
    performance mode the array is omitted and only ``nbytes`` matters.
    Cancelled runs forward an empty activation record (``cancelled=True``,
    tiny ``nbytes``) to preserve message ordering, per Section IV-D2.
    """

    run_id: int
    nbytes: float
    hidden: Optional[Any] = None
    cancelled: bool = False


@dataclass
class LogitsPayload:
    """Per-slot output logits returned from the last stage to the head.

    ``logits`` is a list aligned with the ``want_logits`` slots of the
    run's :class:`DecodeMeta`; entries are dense arrays (functional mode)
    or :class:`~repro.models.oracle.OracleLogits` (performance mode).
    ``cancelled`` marks runs flushed by early inference cancellation — the
    head pops their record without sampling.
    """

    run_id: int
    logits: List[Any]
    nbytes: float
    cancelled: bool = False


@dataclass
class FusedRun:
    """One run's (meta, activations) pair inside a fused window.

    Workers drain every transaction waiting in their mailbox into a
    *fusion window* and evaluate the compatible decode runs as one
    cross-run batch; on the wire the window travels as a single
    :class:`FusedBatch` whose items preserve the original transaction
    order, so MPI non-overtaking semantics and run-FIFO ordering are
    exactly those of the equivalent singleton transactions.
    """

    meta: "DecodeMeta"
    act: "Activations"


@dataclass
class FusedBatch:
    """A fused multi-run transaction forwarded between pipeline workers.

    ``items`` is the ordered window: :class:`FusedRun` entries for decode
    runs and plain ``List[CacheOp]`` batches for the cache-op transactions
    that arrived between them.  Order within ``items`` is the order the
    singleton transactions were dispatched in, which every stage must
    respect (cache ops copy cells written by the decode runs preceding
    them — Section IV-C3).
    """

    items: List[Any]
    nbytes: float = 0.0


class CacheOpKind(enum.IntEnum):
    """KV-cache maintenance commands (llama.cpp sequence API)."""

    #: Copy cells of ``seq_src`` in [p0, p1) into ``seq_dst``.
    SEQ_CP = 1
    #: Remove cells of ``seq`` in [p0, p1).
    SEQ_RM = 2
    #: Copy cells of ``seq_src`` in [p0, p1) into every sequence listed in
    #: ``targets`` (acceptance propagation IV-C2; prefix-cache fan-out).
    SEQ_BROADCAST = 3


#: Open end bound ``p1`` of whole-sequence cache ops.
SEQ_END = 1 << 40


@dataclass
class CacheOp:
    """A pipelined cache operation command (Section IV-C3).

    ``targets`` is the explicit destination list of a ``SEQ_BROADCAST``
    (one wire command materializes a shared cached prefix into several
    requests' partitions at once); empty for the point ops.
    """

    kind: CacheOpKind
    seq_src: int
    seq_dst: int
    p0: int
    p1: int
    targets: tuple = ()
    #: Wire size of one command; a batch of ``n`` costs ``n * nbytes``.
    nbytes: ClassVar[float] = 32.0


@dataclass
class CancelMsg:
    """Early-inference-cancellation signal: just the run identifier."""

    run_id: int
    nbytes: ClassVar[float] = 16.0


@dataclass
class ShutdownMsg:
    """End-of-generation control message."""

    nbytes: ClassVar[float] = 8.0
