"""Model substrate: the llama.cpp-equivalent inference stack.

Two coupled fidelity levels, which the engines reach through the
``Backend`` interface of :mod:`repro.engines.backend`:

- **Functional**: :mod:`repro.models.transformer` is a real NumPy
  decoder-only transformer (RMSNorm, RoPE, grouped-query attention,
  SwiGLU) operating over the llama.cpp-style KV cache in
  :mod:`repro.models.kv_cache`.  Used for the correctness-level
  experiments (output equivalence, multibuffer isolation).
- **Performance**: :mod:`repro.models.oracle` provides deterministic
  target/draft model pairs with calibrated agreement (the paper's
  acceptance rates), and :mod:`repro.models.cost` turns the architecture
  descriptors of :mod:`repro.models.zoo` (Tables I and III) into per-layer
  compute times and message sizes for the cluster simulation.
"""

from repro.models.arch import ArchSpec
from repro.models.quant import Quant, bits_per_weight
from repro.models.zoo import MODEL_ZOO, CPU_PAIRS, GPU_PAIRS, ModelPair, get_model, get_pair
from repro.models.cost import CostModel
from repro.models.kv_cache import KVCache, KVCacheError
from repro.models.transformer import TinyTransformer, TransformerConfig
from repro.models.oracle import OracleLM, OracleLogits, make_aligned_pair
from repro.models.sampler import argmax_token
from repro.models.tokenizer import ToyTokenizer

__all__ = [
    "ArchSpec",
    "Quant",
    "bits_per_weight",
    "MODEL_ZOO",
    "CPU_PAIRS",
    "GPU_PAIRS",
    "ModelPair",
    "get_model",
    "get_pair",
    "CostModel",
    "KVCache",
    "KVCacheError",
    "TinyTransformer",
    "TransformerConfig",
    "OracleLM",
    "OracleLogits",
    "make_aligned_pair",
    "argmax_token",
    "ToyTokenizer",
]
