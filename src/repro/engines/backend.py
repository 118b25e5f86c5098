"""Execution backends: one engine codebase, two fidelity levels.

A :class:`Backend` supplies everything model-specific the engines need:
draft proposals (with confidences), per-stage compute (real math or
metadata-only), logits materialization at the last rank, timing, message
sizes, and memory footprints.

- :class:`FunctionalBackend` wraps two :class:`TinyTransformer` instances
  (target, draft) with near-zero fixed timings.  Used to prove output
  equivalence and KV-multibuffering correctness with real attention.
- :class:`OracleBackend` wraps an alignment-calibrated oracle pair plus
  the analytic :class:`~repro.models.cost.CostModel` of a Table I/III
  model pair on real testbed node specs.  Used for every timing figure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.hardware import NodeSpec
from repro.comm.payloads import SEQ_END, CacheOp, CacheOpKind, DecodeMeta, TokenSlot
from repro.models.cost import CostModel
from repro.models.kv_cache import KVCache
from repro.models.layers import ScratchArena
from repro.models.oracle import OracleLM, OracleLogits, make_aligned_pair
from repro.models.range_cache import RangeKVCache
from repro.models.sampler import LogitsLike, batched_top1, softmax_probs
from repro.models.transformer import TinyTransformer
from repro.models.zoo import ModelPair
from repro.spec.draft import DraftParams

#: Modeled wire size of a cancelled/empty activation record.
EMPTY_ACTIVATION_NBYTES = 16.0

#: KV cells an oracle shard is charged for in node memory when the backend
#: sets no cell budget (the Figure 7a footprint).
UNBUDGETED_MEMORY_CELLS = 2048

#: Context length the oracle backend's analytic cost model assumes.
COST_CONTEXT = 640

#: Layers per oracle compute chunk: the worker's cancellation probe
#: granularity ("thread synchronization points", Section IV-D2).
PROBE_CHUNK_LAYERS = 4

#: The confidence cutoff the oracle pair's acceptance is calibrated at:
#: the default draft cutoff.
CALIBRATION_CUTOFF = DraftParams().cutoff


class ChainState:
    """The head node's working token chain: accepted prefix + drafted suffix.

    Tracks the oracle rolling state per position in performance mode so
    draft proposals and per-slot logits states are O(1); functional mode
    recomputes from the raw token list instead.
    """

    def __init__(self, tokens: Sequence[int], oracle: Optional[OracleLM] = None) -> None:
        self.tokens: List[int] = list(tokens)
        self._oracle = oracle
        self._states: Optional[List[int]] = None
        #: Functional-mode binding into the backend's shared draft-KV
        #: plane (the sequence id holding this chain's incremental draft
        #: context; None until first proposal, and for oracle chains).
        #: Living on the chain keeps it per-request under serving
        #: multiplexing; :meth:`Backend.release_chain` returns it.
        self.draft_seq: Optional[int] = None
        if oracle is not None:
            states = [oracle.init_state(())]
            for t in self.tokens:
                states.append(oracle.advance(states[-1], t))
            self._states = states

    def __len__(self) -> int:
        return len(self.tokens)

    def append(self, token: int) -> None:
        self.tokens.append(token)
        if self._states is not None:
            assert self._oracle is not None
            self._states.append(self._oracle.advance(self._states[-1], token))

    def state_after(self, n_tokens: int) -> int:
        """Oracle rolling state after the first ``n_tokens`` of the chain."""
        if self._states is None:
            raise RuntimeError("chain has no oracle states (functional mode)")
        return self._states[n_tokens]

    def common_prefix(self, truth: Sequence[int], start: int) -> int:
        """Length of the prefix the chain shares with ``truth``, given that
        their first ``start`` tokens already agree — O(new positions)."""
        tokens = self.tokens
        limit = min(len(tokens), len(truth))
        common = start
        while common < limit and tokens[common] == truth[common]:
            common += 1
        return common

    def reconcile(self, truth: Sequence[int], common: int) -> None:
        """Reset the chain to ``truth``, keeping the common-prefix states.

        ``common`` is how many leading tokens the chain and ``truth``
        already share (:meth:`common_prefix`, or known to the caller), so
        the chain truncates in place and appends ``truth``'s tail —
        O(change), not O(context).
        """
        del self.tokens[common:]
        if self._states is not None:
            del self._states[common + 1 :]
        for t in truth[common:]:
            self.append(t)


@dataclass
class WorkerState:
    """Per-rank execution state: the KV shard and layer assignment.

    ``arena`` holds the rank's private scratch buffers: decode windows of
    the same shape reuse the same temporaries pass after pass.  Private
    per rank because an arena must never be shared by two concurrent
    consumers — forwarded activations are copied out before the stage
    yields, so recycling is invisible to the simulation.
    """

    rank: int
    layer_range: Tuple[int, int]
    cache: Any  # KVCache (functional) or RangeKVCache (performance)
    is_first_stage: bool
    is_last_stage: bool
    arena: ScratchArena = field(default_factory=ScratchArena)


@dataclass
class StageRun:
    """One run's compute inputs inside a fused stage window.

    ``skip`` marks runs the worker will not evaluate (cancelled
    speculative runs, or runs whose upstream record was already empty);
    they keep their slot in the window so per-run outputs — and the
    records forwarded downstream — stay in dispatch order.
    """

    meta: DecodeMeta
    hidden: Optional[np.ndarray]
    skip: bool = False


def apply_cache_op(cache: Any, op: CacheOp) -> None:
    """Apply a pipelined cache command to a node's KV shard.

    Works on both cache implementations (duck-typed sequence API).
    """
    if op.kind == CacheOpKind.SEQ_CP:
        cache.seq_cp(op.seq_src, op.seq_dst, op.p0, op.p1)
    elif op.kind == CacheOpKind.SEQ_RM:
        cache.seq_rm(op.seq_src, op.p0, op.p1)
    elif op.kind == CacheOpKind.SEQ_BROADCAST:
        # Explicit multi-target form: one wire command copies a shared
        # cached prefix into several requests' partitions (the prefix
        # cache's admission-sweep fast path).  Targetless broadcast
        # ("every sequence the shard has seen") stays unsupported — the
        # engines always name their destinations.
        if not op.targets:
            raise ValueError("SEQ_BROADCAST needs explicit target sequences")
        cache.seq_broadcast(op.seq_src, op.p0, op.p1, op.targets)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown cache op {op.kind}")


class Backend(ABC):
    """Model-specific behaviour consumed by the engines."""

    vocab: int
    n_target_layers: int

    #: True when worker KV shards hold only placement metadata and token
    #: values are derived head-side (the oracle backend): a crashed worker
    #: then loses no numerics, so crash recovery may re-materialize prompt
    #: prefixes from the prefix cache.  The functional backend's shards
    #: hold real tensors, so recovery must cold re-prefill from tokens.
    kv_is_metadata = False

    # -- head side: chain and drafting ---------------------------------------

    @abstractmethod
    def new_chain(self, tokens: Sequence[int]) -> ChainState:
        """A chain state initialized with ``tokens`` (the prompt)."""

    @abstractmethod
    def propose(self, chain: ChainState) -> Tuple[int, float]:
        """The draft model's greedy continuation of the chain: (token, conf)."""

    def propose_multi(
        self, chains: Sequence[ChainState]
    ) -> List[Tuple[int, float]]:
        """Greedy continuations for several chains, one batched draft pass.

        The serving head's draft scheduler collects every request whose
        chain wants a proposal step and evaluates all their one-token
        draft decodes together.  The contract is differential: the result
        must equal ``[self.propose(c) for c in chains]`` token-for-token
        (and leave identical per-chain draft-KV state) — batching is a
        scheduling optimization, never a semantic one.  The default is
        that sequential reference; the functional backend overrides it
        with a single cross-chain draft forward.
        """
        return [self.propose(chain) for chain in chains]

    def release_chain(self, chain: ChainState) -> None:
        """Drop any backend-side draft state held for ``chain``.

        Serving heads call this when a request completes so the shared
        draft-KV plane frees the chain's cells and sequence id.  Default:
        nothing to release (oracle chains carry their own states).
        """

    # A backend is the tree drafter of spec.draft.draft_tree, over cursors:
    # opaque handles on "the chain plus a path of drafted tokens".  The
    # oracle backend's cursor is the rolling state, so a tree edge costs
    # one ``advance``; the functional backend's is the token list itself.

    @abstractmethod
    def draft_cursor(self, chain: ChainState) -> Any:
        """The tree-drafting cursor for the chain's full token list."""

    @abstractmethod
    def advance_cursor(self, cursor: Any, token: int) -> Any:
        """The cursor one drafted ``token`` further along."""

    @abstractmethod
    def propose_alternatives(self, cursor: Any, n: int) -> List[Tuple[int, float]]:
        """Top-``n`` draft proposals at a tree cursor, best first."""

    @abstractmethod
    def draft_token_time(self) -> float:
        """Cost of one draft-model forward pass on the head node.

        Used by PipeInfer, whose dedicated speculation node hosts the
        whole draft model locally (Section II-C).
        """

    def draft_batch_time(self, n_chains: int) -> float:
        """Cost of one *batched* draft pass proposing for ``n_chains`` chains.

        A fused pass streams the draft model's weights once for the whole
        batch, so it is charged a single batched forward time rather than
        ``n_chains`` sequential passes.  Default (no batching support):
        the sequential sum.
        """
        return n_chains * self.draft_token_time()

    def draft_pipeline_token_time(self, nodes, link_latency: float) -> float:
        """Cost of one draft-model pass distributed across the pipeline.

        The speculative baseline (llama.cpp-style MPI) splits *both*
        models across the ranks, so each autoregressive draft token pays
        every node's per-decode overhead plus a link hop — the expense
        that motivates PipeInfer's dedicated speculation node.  Functional
        backends keep the local cost.
        """
        return self.draft_token_time()

    # -- worker side: compute -------------------------------------------------

    @abstractmethod
    def make_worker_state(
        self, rank: int, layer_range: Tuple[int, int], first: bool, last: bool
    ) -> WorkerState:
        """Per-rank state (KV shard) for a pipeline stage."""

    def worker_cell_capacity(self) -> Optional[int]:
        """KV cells available per worker shard, or None when unbounded.

        The serving scheduler throttles admission against this so that
        concurrent requests cannot overflow a fixed-capacity cache
        mid-flight.  Performance mode tracks ranges without a cell
        budget, hence the None default.
        """
        return None

    @abstractmethod
    def compute_stage_multi(
        self, ws: WorkerState, window: Sequence[Any]
    ) -> List[Optional[np.ndarray]]:
        """Evaluate a fused window of runs and interleaved cache-op batches.

        ``window`` is an ordered sequence of :class:`StageRun` entries and
        plain ``List[CacheOp]`` batches, exactly as the transactions
        arrived at the worker.  The result must equal walking the window
        in order — cache ops applied, each run's KV cells allocated and
        its layers evaluated one run at a time; first stages embed from
        ``meta.slots`` when a run's ``hidden`` is None.

        Returns one output per :class:`StageRun`, in window order; skipped
        runs and performance-mode runs yield None.
        """

    @abstractmethod
    def finalize_logits(
        self, ws: WorkerState, meta: DecodeMeta, hidden: Optional[np.ndarray]
    ) -> List[LogitsLike]:
        """Materialize logits for the ``want_logits`` slots at the last rank."""

    # -- timing -----------------------------------------------------------------

    @abstractmethod
    def stage_chunks(
        self, node: NodeSpec, layer_range: Tuple[int, int], n_tokens: int
    ) -> List[float]:
        """Per-chunk compute delays for a stage evaluating ``n_tokens``
        (a fused window's concatenated count: weights stream once).

        Chunk boundaries are the worker's cancellation probe points
        ("thread synchronization points", Section IV-D2).
        """

    @abstractmethod
    def logits_time(self, node: NodeSpec, n_logits: int) -> float:
        """Output-head evaluation time at the last rank."""

    # -- message sizes ------------------------------------------------------------

    @abstractmethod
    def activation_nbytes(self, n_tokens: int) -> float: ...

    @abstractmethod
    def logits_nbytes(self, n_logits: int) -> float: ...

    def meta_nbytes(self, n_tokens: int) -> float:
        """Wire size of a decode-meta record."""
        return 32.0 + 24.0 * n_tokens

    # -- memory -------------------------------------------------------------------

    @abstractmethod
    def node_memory(
        self,
        layer_range: Optional[Tuple[int, int]],
        hosts_draft: bool,
        first: bool = False,
        last: bool = False,
    ) -> float:
        """Modeled resident bytes for a node with the given roles, its KV
        shard sized as the worker shards are."""

    # -- oracle plumbing -------------------------------------------------------------

    def slot_states(self, chain: ChainState, start_index: int, n: int) -> Optional[List[int]]:
        """Per-slot oracle states for slots chain[start_index : start_index+n].

        Entry *i* is the rolling state *after* that slot's token — exactly
        what the last rank needs to produce the slot's logits.  Functional
        backends return None.
        """
        return None


# ---------------------------------------------------------------------------
# Functional backend: real tiny transformers.
# ---------------------------------------------------------------------------


class _DraftPlane:
    """The head node's shared draft-model KV plane (all chains, one cache).

    PipeInfer's head hosts the whole draft model (Section II-C), so its
    drafting cost must be one forward pass per proposed token.  Every
    chain binds a private *sequence id* in one shared tensor-backed
    :class:`KVCache`; the cache holds each chain's already-evaluated
    prefix, so a proposal decodes only the suffix beyond the longest
    common prefix — O(chain), not O(chain^2) — and, because all chains
    share the cache, the suffix slots of *several* chains concatenate
    into one cross-request batch whose per-chain visibility falls out of
    the sequence metadata exactly as it does for fused verification
    windows.  The cache grows in place as serving chains lengthen.
    """

    def __init__(self, model: TinyTransformer, n_cells: int = 1024) -> None:
        self.model = model
        self.cache = model.new_cache(n_cells)
        #: Scratch buffers for the plane's draft decodes (head-side, so
        #: never shared with a pipeline stage's arena).
        self.arena = ScratchArena()
        #: seq -> tokens whose cells the cache holds (positions 0..n-1).
        self.tokens: dict = {}
        self._next_seq = 0
        self._free_seqs: List[int] = []

    def bind(self, chain: ChainState) -> int:
        """The chain's plane sequence id, assigned on first use."""
        if chain.draft_seq is None:
            if self._free_seqs:
                chain.draft_seq = self._free_seqs.pop()
            else:
                chain.draft_seq = self._next_seq
                self._next_seq += 1
            self.tokens[chain.draft_seq] = []
        return chain.draft_seq

    def release(self, chain: ChainState) -> None:
        """Free the chain's cells and return its sequence id to the pool."""
        seq = chain.draft_seq
        if seq is None:
            return
        self.cache.seq_rm(seq, 0, SEQ_END)
        self.tokens.pop(seq, None)
        self._free_seqs.append(seq)
        chain.draft_seq = None

    def suffix_slots(self, chain: ChainState) -> List[TokenSlot]:
        """Slots decoding the chain's tokens past its cached prefix.

        Trims any stale cached suffix first (the head reconciled the
        chain), and always re-decodes at least the last chain token —
        whose logits are the proposal being asked for.
        """
        seq = self.bind(chain)
        prefix = chain.tokens
        cached = self.tokens[seq]
        common = 0
        limit = min(len(cached), len(prefix) - 1)
        while common < limit and cached[common] == prefix[common]:
            common += 1
        if common < len(cached):
            self.cache.seq_rm(seq, common, SEQ_END)
        self.tokens[seq] = list(prefix)
        return [
            TokenSlot(token=prefix[i], pos=i, seq_ids=(seq,),
                      want_logits=(i == len(prefix) - 1))
            for i in range(common, len(prefix))
        ]

    def decode(
        self,
        slots: Sequence[TokenSlot],
        row_groups: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """One draft forward for a (possibly cross-chain) slot batch."""
        if self.cache.n_free < len(slots):
            need = self.cache.n_used + len(slots)
            self.cache.grow(max(2 * self.cache.n_cells, 2 * need))
        return self.model.decode(
            list(slots), self.cache, arena=self.arena, row_groups=row_groups
        )


class FunctionalBackend(Backend):
    """Real-math backend over :class:`TinyTransformer` target/draft models.

    Timing constants are fixed and small: the functional level validates
    *what* is computed, not how long it takes.
    """

    LAYER_TIME = 2e-4
    DRAFT_TIME = 1e-4
    LOGITS_TIME = 1e-4

    def __init__(
        self,
        target: TinyTransformer,
        draft: TinyTransformer,
        n_cells: int = 512,
    ) -> None:
        if target.cfg.vocab != draft.cfg.vocab:
            raise ValueError("target and draft must share a vocabulary")
        self.target = target
        self.draft = draft
        self.vocab = target.cfg.vocab
        self.n_target_layers = target.cfg.n_layers
        self.n_cells = n_cells
        #: Shared head-side draft-KV plane (built on first proposal).
        self._draft_plane: Optional[_DraftPlane] = None

    # -- drafting ----------------------------------------------------------------

    def new_chain(self, tokens: Sequence[int]) -> ChainState:
        return ChainState(tokens, oracle=None)

    def _draft_logits(self, prefix: Sequence[int]) -> np.ndarray:
        """Full (uncached) draft forward; prefix lengths stay small in tests."""
        slots = [
            TokenSlot(token=t, pos=i, seq_ids=(0,), want_logits=(i == len(prefix) - 1))
            for i, t in enumerate(prefix)
        ]
        cache = self.draft.new_cache(len(prefix))
        return self.draft.decode(slots, cache)[0]

    def _plane(self) -> _DraftPlane:
        if self._draft_plane is None:
            self._draft_plane = _DraftPlane(self.draft)
        return self._draft_plane

    def propose(self, chain: ChainState) -> Tuple[int, float]:
        return self.propose_multi([chain])[0]

    def propose_multi(
        self, chains: Sequence[ChainState]
    ) -> List[Tuple[int, float]]:
        """One draft forward proposing the next token for every chain.

        Each chain contributes the slots past its cached plane prefix
        (usually one: its newest token); the concatenated batch runs as
        one draft forward, one row group per chain, with per-chain
        sequence ids keeping the attention views disjoint.  The
        ``want_logits`` slots — each chain's last token, in chain order —
        yield one (token, confidence) proposal per chain.
        """
        plane = self._plane()
        slots: List[TokenSlot] = []
        counts: List[int] = []
        for chain in chains:
            chain_slots = plane.suffix_slots(chain)
            slots.extend(chain_slots)
            counts.append(len(chain_slots))
        logits = plane.decode(slots, row_groups=counts)
        # One fused top-1+confidence kernel over the whole round instead
        # of a full softmax row per chain (<= 1e-10 of the per-row path).
        tokens, confs = batched_top1(logits)
        return [(int(t), float(c)) for t, c in zip(tokens, confs)]

    def release_chain(self, chain: ChainState) -> None:
        if self._draft_plane is not None:
            self._draft_plane.release(chain)

    def draft_cursor(self, chain: ChainState) -> List[int]:
        return list(chain.tokens)

    def advance_cursor(self, cursor: List[int], token: int) -> List[int]:
        return cursor + [token]

    def propose_alternatives(self, cursor: List[int], n: int) -> List[Tuple[int, float]]:
        logits = self._draft_logits(cursor)
        probs = softmax_probs(logits)
        order = np.argsort(-probs)[:n]
        return [(int(t), float(probs[t])) for t in order]

    def draft_token_time(self) -> float:
        return self.DRAFT_TIME

    def draft_batch_time(self, n_chains: int) -> float:
        # One fused pass streams the draft weights once for the batch,
        # matching the fixed per-pass constant of the singleton path.
        return self.DRAFT_TIME

    # -- worker compute -------------------------------------------------------------

    def make_worker_state(self, rank, layer_range, first, last) -> WorkerState:
        lo, hi = layer_range
        cache = self.target.new_cache(self.n_cells, layer_range)
        return WorkerState(rank, layer_range, cache, first, last)

    def worker_cell_capacity(self) -> Optional[int]:
        return self.n_cells

    def compute_stage_multi(self, ws, window):
        """Fused cross-run execution with sequential-order metadata.

        Two passes keep fused results identical to per-run evaluation:

        1. **Metadata pass, strict transaction order.**  Each run's cells
           are allocated — and each cache-op batch applied — exactly where
           its transaction sat in the window, so allocation order and
           sequence metadata match the sequential execution cell for
           cell.  Each run's compact visibility plan (``(cells, mask)``
           from :meth:`KVCache.visible_matrix`) is *snapshotted* at its
           own point in the order: later allocations and copies can never
           leak into an earlier run's mask.
        2. **Tensor pass, one fused batch per group.**  Compatible runs
           are concatenated (hiddens, cells) and evaluated with a single
           ``forward_stage`` call that takes each run's compact
           visibility plan — attention stays per run, over just the
           cells the run sees — then split back into per-run activations.

        Grouping is conservative: when a run's freshly allocated cells
        intersect cells *visible to* (or owned by) runs already in the
        current group — possible only when an interleaved ``seq_rm`` freed
        a cell and this run reuses its index — the window splits, because
        the earlier runs must read the cell's old K/V before this run's
        layer-loop writes overwrite it.  Earlier groups always compute
        before later groups, which preserves exactly that order.
        """
        cache: KVCache = ws.cache
        runs = [it for it in window if isinstance(it, StageRun)]
        outs: List[Optional[np.ndarray]] = [None] * len(runs)
        #: (run_index, hidden, slots, cells, plan) per live run.
        planned: List[Tuple[int, np.ndarray, list, np.ndarray, tuple]] = []
        groups: List[List[int]] = [[]]
        vis_union = np.zeros(cache.n_cells, dtype=bool)
        ri = -1
        for item in window:
            if not isinstance(item, StageRun):
                for op in item:
                    apply_cache_op(cache, op)
                continue
            ri += 1
            if item.skip:
                continue
            meta = item.meta
            hidden = (
                self.target.embed(meta.slots) if item.hidden is None else item.hidden
            )
            cells = np.asarray(
                cache.allocate([(s.pos, s.seq_ids) for s in meta.slots]),
                dtype=np.intp,
            )
            if vis_union[cells].any() and groups[-1]:
                groups.append([])
                vis_union[:] = False
            plan = cache.visible_matrix(
                [s.seq_ids[0] for s in meta.slots], [s.pos for s in meta.slots]
            )
            vis_union[plan[0]] = True
            vis_union[cells] = True
            groups[-1].append(len(planned))
            planned.append((ri, hidden, list(meta.slots), cells, plan))
        for group in groups:
            if not group:
                continue
            parts = [planned[i] for i in group]
            if len(parts) == 1:
                idx, hidden, slots, cells, _ = parts[0]
            else:
                idx = -1
                hidden = np.concatenate([p[1] for p in parts], axis=0)
                slots = [s for p in parts for s in p[2]]
                cells = np.concatenate([p[3] for p in parts])
            fused = self.target.forward_stage(
                hidden, slots, cache, ws.layer_range, cells=cells,
                plans=[p[4] for p in parts], arena=ws.arena,
            )
            if len(parts) == 1:
                outs[idx] = fused
            else:
                off = 0
                for p in parts:
                    n = len(p[2])
                    outs[p[0]] = fused[off : off + n]
                    off += n
        return outs

    def finalize_logits(self, ws, meta, hidden):
        want = [i for i, s in enumerate(meta.slots) if s.want_logits]
        out = self.target.output(hidden, want, arena=ws.arena)
        return [out[i] for i in range(len(want))]

    # -- timing ---------------------------------------------------------------------

    def stage_chunks(self, node, layer_range, n_tokens):
        lo, hi = layer_range
        return [(hi - lo) * self.LAYER_TIME]

    def logits_time(self, node, n_logits):
        return self.LOGITS_TIME

    # -- sizes / memory -----------------------------------------------------------------

    def activation_nbytes(self, n_tokens: int) -> float:
        return n_tokens * self.target.cfg.d_model * 4.0

    def logits_nbytes(self, n_logits: int) -> float:
        return n_logits * self.vocab * 4.0

    def node_memory(self, layer_range, hosts_draft, first=False, last=False) -> float:
        cfg = self.target.cfg
        per_layer = 4.0 * (2 * cfg.d_model * cfg.d_model + 3 * cfg.d_model * cfg.d_ff)
        total = 0.0
        if layer_range is not None:
            total += (layer_range[1] - layer_range[0]) * per_layer
        if hosts_draft:
            dcfg = self.draft.cfg
            total += dcfg.n_layers * 4.0 * (
                2 * dcfg.d_model * dcfg.d_model + 3 * dcfg.d_model * dcfg.d_ff
            )
        return total + self.n_cells * cfg.kv_dim * 8.0


# ---------------------------------------------------------------------------
# Oracle backend: calibrated pairs + analytic costs.
# ---------------------------------------------------------------------------


class OracleBackend(Backend):
    """Performance backend: oracle logits, analytic per-layer timing."""

    kv_is_metadata = True

    def __init__(
        self,
        pair: ModelPair,
        head_node: NodeSpec,
        seed: int = 0,
        acceptance_override: Optional[float] = None,
        n_cells: Optional[int] = None,
    ) -> None:
        self.pair = pair
        #: Optional per-shard KV cell budget for serving admission.  The
        #: interval caches never overflow physically, but a bounded budget
        #: lets oracle-mode serving model real cache pressure; None keeps
        #: the historical unbounded behaviour.
        self.n_cells = n_cells
        self.target_cost = CostModel(pair.target_arch, context=COST_CONTEXT)
        self.draft_cost = CostModel(pair.draft_arch, context=COST_CONTEXT)
        self.vocab = pair.target_arch.vocab
        self.n_target_layers = pair.target_arch.n_layers
        self.head_node = head_node
        acceptance = (
            pair.acceptance if acceptance_override is None else acceptance_override
        )
        # Calibrate raw agreement so acceptance *measured over tokens that
        # pass the default confidence cutoff* matches the paper's rate.
        self.oracle, self.draft_oracle = make_aligned_pair(
            acceptance, seed=seed, vocab=self.vocab, cutoff=CALIBRATION_CUTOFF
        )
        self._draft_pass_time = self.draft_cost.full_model_time(head_node, 1)

    # -- drafting -----------------------------------------------------------------

    def new_chain(self, tokens: Sequence[int]) -> ChainState:
        return ChainState(tokens, oracle=self.oracle)

    def propose(self, chain: ChainState) -> Tuple[int, float]:
        state = chain.state_after(len(chain))
        token = self.draft_oracle.next_token_from_state(state)
        conf = self.draft_oracle.confidence_from_state(state)
        return token, conf

    def draft_cursor(self, chain: ChainState) -> int:
        return chain.state_after(len(chain))

    def advance_cursor(self, cursor: int, token: int) -> int:
        return self.oracle.advance(cursor, token)

    def propose_alternatives(self, cursor: int, n: int) -> List[Tuple[int, float]]:
        token = self.draft_oracle.next_token_from_state(cursor)
        conf = self.draft_oracle.confidence_from_state(cursor)
        out = [(token, conf)]
        for k in range(1, n):
            alt = (token + 7919 * k) % self.vocab
            if alt == token:
                alt = (alt + 1) % self.vocab
            out.append((alt, conf * (0.4 ** k)))
        return out

    def draft_token_time(self) -> float:
        return self._draft_pass_time

    def draft_batch_time(self, n_chains: int) -> float:
        # A batched draft pass over n one-token decodes: the analytic
        # model charges one full-model pass at batch width n (weights
        # streamed once), not n sequential single-token passes.
        return self.draft_cost.full_model_time(self.head_node, max(n_chains, 1))

    def draft_pipeline_token_time(self, nodes, link_latency: float) -> float:
        arch = self.pair.draft_arch
        total = 0.0
        n_ranks = len(nodes)
        base = arch.n_layers // n_ranks
        extra = arch.n_layers % n_ranks
        for i, node in enumerate(nodes):
            n_layers = base + (1 if i < extra else 0)
            total += n_layers * self.draft_cost.layer_time(node, 1)
            total += node.compute_overhead
            total += link_latency
        total += self.draft_cost.output_head_time(nodes[-1], 1)
        return total

    def slot_states(self, chain: ChainState, start_index: int, n: int) -> Optional[List[int]]:
        return [chain.state_after(start_index + i + 1) for i in range(n)]

    # -- worker compute ---------------------------------------------------------------

    def make_worker_state(self, rank, layer_range, first, last) -> WorkerState:
        return WorkerState(rank, layer_range, RangeKVCache(), first, last)

    def worker_cell_capacity(self) -> Optional[int]:
        return self.n_cells

    def compute_stage_multi(self, ws, window):
        """Metadata-only fused window: record every live run's cells.

        Interval metadata has no cross-run interaction, so the fused form
        is simply the in-order walk; the fused *timing* benefit comes from
        the worker charging the window one :meth:`stage_chunks` time.
        Each live run's positions are grouped by sequence id and recorded
        with one ``add_tokens`` per sequence (a set union, so the order of
        a run's own writes does not matter).
        """
        cache: RangeKVCache = ws.cache
        outs: List[Optional[np.ndarray]] = []
        for item in window:
            if isinstance(item, StageRun):
                if not item.skip:
                    by_seq: Dict[int, List[int]] = {}
                    for slot in item.meta.slots:
                        for seq in slot.seq_ids:
                            by_seq.setdefault(seq, []).append(slot.pos)
                    for seq, positions in by_seq.items():
                        cache.add_tokens(seq, positions)
                outs.append(None)
            else:
                for op in item:
                    apply_cache_op(cache, op)
        return outs

    def finalize_logits(self, ws, meta, hidden):
        if meta.oracle_states is None:
            raise RuntimeError("oracle backend needs per-slot states in the meta")
        out: List[OracleLogits] = []
        for slot, state in zip(meta.slots, meta.oracle_states):
            if slot.want_logits:
                out.append(self.oracle.logits_from_state(state))
        return out

    # -- timing -------------------------------------------------------------------------

    def stage_chunks(self, node, layer_range, n_tokens):
        lo, hi = layer_range
        return self.target_cost.chunked_stage_times(
            node, hi - lo, n_tokens, PROBE_CHUNK_LAYERS
        )

    def logits_time(self, node, n_logits):
        return self.target_cost.output_head_time(node, n_logits)

    # -- sizes / memory ---------------------------------------------------------------------

    def activation_nbytes(self, n_tokens: int) -> float:
        return self.target_cost.activation_bytes(n_tokens)

    def logits_nbytes(self, n_logits: int) -> float:
        return self.target_cost.logits_bytes(n_logits)

    def node_memory(self, layer_range, hosts_draft, first=False, last=False) -> float:
        n_cells = UNBUDGETED_MEMORY_CELLS if self.n_cells is None else self.n_cells
        total = 512e6  # runtime buffers, scratch, code
        arch = self.pair.target_arch
        if layer_range is not None:
            lo, hi = layer_range
            total += (hi - lo) * arch.bytes_per_layer
            if first:
                total += arch.vocab * arch.d_model * 2.0  # embedding table
            if last:
                total += arch.vocab * arch.d_model * 2.0  # output head
            total += self.target_cost.kv_bytes(hi - lo, n_cells)
        if hosts_draft:
            total += self.draft_cost.weights_bytes()
            total += self.draft_cost.kv_bytes(self.pair.draft_arch.n_layers, n_cells)
        return total
