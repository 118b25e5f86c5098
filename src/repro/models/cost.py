"""Analytic cost model: architecture x hardware -> simulated durations.

Small-batch autoregressive inference is memory-bandwidth bound: every layer
evaluation streams that layer's quantized weights once regardless of how
many tokens are batched (the weights are reused across the batch — the
source of speculative decoding's efficiency).  Per layer, per batch:

``time = max(weight_bytes / matvec_bandwidth, flops / flop_rate)``

plus the node's per-batch dispatch overhead.  ``matvec_bandwidth`` is the
node's sustained STREAM bandwidth derated by a dequantization-kernel
efficiency — quantized matvec kernels reach only a fraction of STREAM on
CPUs (dequant ALU cost) and a larger fraction on GPUs.

The same object supplies message sizes (activation and logits tensors) for
the interconnect model, and per-node memory footprints for the Figure 7a
memory-efficiency analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cluster.hardware import NodeSpec
from repro.models.arch import ArchSpec

#: Fraction of STREAM bandwidth a quantized matvec kernel sustains.  The
#: GPU figure reflects the paper's testbed: mixed-vendor cards driven by a
#: then-unoptimized llama.cpp MPI GPU backend over PCIe hosts.
CPU_MATVEC_EFFICIENCY = 0.30
GPU_MATVEC_EFFICIENCY = 0.40

#: Fraction of peak FLOP throughput quantized *batched* kernels sustain.
#: Dequantize-then-multiply batch kernels are far from peak on CPUs, so
#: batches beyond ~4 tokens cross from bandwidth-bound to compute-bound —
#: the latency growth that motivates micro-batching (paper Section IV-B1).
CPU_QUANT_COMPUTE_EFFICIENCY = 0.25
GPU_QUANT_COMPUTE_EFFICIENCY = 0.50

#: Bytes per activation element on the wire (llama.cpp MPI sends f32).
ACTIVATION_ELEM_BYTES = 4.0
LOGIT_ELEM_BYTES = 4.0


@dataclass(frozen=True)
class CostModel:
    """Durations and sizes for one architecture.

    Attributes:
        arch: the model's shape descriptor.
        context: nominal context length for attention-cost and KV-read
            estimates (prompt + generation budget).
    """

    arch: ArchSpec
    context: int = 640
    #: Memo of ``(node, n_tokens) -> layer_time`` and ``node ->
    #: output_head_time``.  Every term below is a pure function of the
    #: frozen arch/node specs, but evaluating it walks a chain of Python
    #: properties (param counts, kv_dim, derated node rates) — measurable
    #: on the serving hot path, where every fused window asks for the
    #: same handful of ``(node, n_tokens)`` pairs.  Caching reuses the
    #: identical float, so simulated times are bit-equal with or without
    #: the memo.
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    # -- compute -------------------------------------------------------------

    def _matvec_bw(self, node: NodeSpec) -> float:
        eff = GPU_MATVEC_EFFICIENCY if node.is_gpu else CPU_MATVEC_EFFICIENCY
        return node.effective_mem_bw * eff

    def _quant_flops(self, node: NodeSpec) -> float:
        eff = (
            GPU_QUANT_COMPUTE_EFFICIENCY if node.is_gpu else CPU_QUANT_COMPUTE_EFFICIENCY
        )
        return node.effective_flops * eff

    def roofline(self, node: NodeSpec, n_tokens: int) -> Tuple[float, float]:
        """The two roofline terms of one layer on ``n_tokens``:
        ``(mem_time, compute_time)``.

        Weights are streamed once per batch and the KV cache is read once
        per token (attention over the running context), so ``mem_time``
        barely grows with the batch; arithmetic grows linearly with it at
        the derated quantized-kernel rate.
        """
        a = self.arch
        mem_bytes = a.active_bytes_per_layer + (
            n_tokens * self.context * a.kv_bytes_per_token_per_layer
        )
        flops = a.flops_per_token_per_layer(self.context) * n_tokens
        return mem_bytes / self._matvec_bw(node), flops / self._quant_flops(node)

    def layer_time(self, node: NodeSpec, n_tokens: int) -> float:
        """Time to evaluate one decoder layer on a batch of ``n_tokens``.

        The larger of the two :meth:`roofline` terms.  Small batches are
        bandwidth-bound — the speculative-decoding premise — and batches
        beyond a handful of tokens turn compute-bound, penalizing
        oversized speculation batches.
        """
        if n_tokens <= 0:
            raise ValueError("n_tokens must be positive")
        key = (node, n_tokens)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        t = max(self.roofline(node, n_tokens))
        self._memo[key] = t
        return t

    def fusion_ridge(self, node: NodeSpec) -> Optional[int]:
        """The roofline ridge on ``node``: the largest batch whose layer is
        still bandwidth-bound (``mem_time >= compute_time``), at least 1.

        Up to the ridge a wider batch streams the same weights and costs
        almost nothing more; past it every extra token costs compute.  On
        the Xeon E5-2650 a layer is compute-bound from the first token, so
        its ridge is 1.  ``None`` when compute never overtakes memory
        traffic (no ridge).
        """
        mem1, comp1 = self.roofline(node, 1)
        mem2, comp2 = self.roofline(node, 2)
        if comp2 - comp1 <= mem2 - mem1:
            return None
        n = 1
        while True:
            mem, comp = self.roofline(node, n + 1)
            if mem < comp:
                return n
            n += 1

    def stage_time(self, node: NodeSpec, n_layers: int, n_tokens: int) -> float:
        """Time for one pipeline stage: ``n_layers`` plus dispatch overhead."""
        if n_layers <= 0:
            return node.compute_overhead
        return n_layers * self.layer_time(node, n_tokens) + node.compute_overhead

    def chunked_stage_times(
        self, node: NodeSpec, n_layers: int, n_tokens: int, chunk_layers: int
    ) -> list:
        """Stage time split at cancellation-probe chunk boundaries.

        ``n_tokens`` is the *whole batch* evaluated in one pass.  For a
        fused multi-run window that is the concatenated token count of
        every run in the window: the layer weights are streamed once for
        the fused batch and the dispatch overhead is paid once, so a
        fused window is charged a single fused stage time — not the sum
        of its runs' singleton stage times.  (Small batches sit on the
        bandwidth-bound side of the roofline, which is exactly why fusing
        several 1–4-token runs is nearly free in time and saves the
        per-run weight streams.)
        """
        if n_layers <= 0:
            return [node.compute_overhead]
        key = (node, n_layers, n_tokens, chunk_layers)
        cached = self._memo.get(key)
        if cached is not None:
            return list(cached)
        per_layer = self.layer_time(node, n_tokens)
        chunks = []
        remaining = n_layers
        while remaining > 0:
            step = min(chunk_layers, remaining)
            chunks.append(step * per_layer)
            remaining -= step
        chunks[0] += node.compute_overhead
        # Cache a tuple; hand out a fresh list so callers may mutate.
        self._memo[key] = tuple(chunks)
        return chunks

    def output_head_time(self, node: NodeSpec, n_logits: int) -> float:
        """Final norm + LM head: streams the (unquantized-ish) head weights."""
        cached = self._memo.get(node)
        if cached is not None:
            return cached
        a = self.arch
        head_bytes = a.vocab * a.d_model * 2.0  # f16 output head
        t = head_bytes / self._matvec_bw(node) + node.compute_overhead
        self._memo[node] = t
        return t

    def embed_time(self, node: NodeSpec, n_tokens: int) -> float:
        """Token-embedding lookup: one row per token — effectively free."""
        a = self.arch
        return n_tokens * a.d_model * 2.0 / node.effective_mem_bw

    def full_model_time(self, node: NodeSpec, n_tokens: int) -> float:
        """Single-node full forward pass (draft model on the head node)."""
        key = ("full", node, n_tokens)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        t = (
            self.embed_time(node, n_tokens)
            + self.stage_time(node, self.arch.n_layers, n_tokens)
            + self.output_head_time(node, n_tokens)
        )
        self._memo[key] = t
        return t

    # -- message sizes ---------------------------------------------------------

    def activation_bytes(self, n_tokens: int) -> float:
        """Hidden-state tensor size between pipeline stages."""
        return n_tokens * self.arch.d_model * ACTIVATION_ELEM_BYTES

    def logits_bytes(self, n_logits: int) -> float:
        """Logit tensor size returned to the head node."""
        return n_logits * self.arch.vocab * LOGIT_ELEM_BYTES

    # -- memory footprints -------------------------------------------------------

    def weights_bytes(self, n_layers: int | None = None) -> float:
        """Stored weight bytes for ``n_layers`` (default: whole model)."""
        a = self.arch
        if n_layers is None:
            return a.total_bytes
        embed = a.embedding_params * 2.0  # head+embedding kept f16
        return n_layers * a.bytes_per_layer + (embed if n_layers == a.n_layers else 0.0)

    def kv_bytes(self, n_layers: int, n_cells: int) -> float:
        """KV-cache bytes for a shard of ``n_layers`` and ``n_cells`` cells."""
        return n_layers * n_cells * self.arch.kv_bytes_per_token_per_layer
