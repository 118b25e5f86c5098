"""The paper's model pairs (Tables I and III) as architecture descriptors.

Shapes come from the models' published configs.  Two conventions:

- Falcon uses a non-gated 4x MLP (two matrices); its ``d_ff`` below is the
  *SwiGLU-equivalent* width (2/3 of twice the real width) so that the
  3-matrix parameter formula in :class:`~repro.models.arch.ArchSpec`
  yields the correct parameter count.
- Goliath-120B is a layer-splice merge of two Llama-2-70Bs: same width,
  137 layers — the paper's "tall and thin" architecture.

``acceptance`` on a :class:`ModelPair` is the paper's measured token
acceptance rate where reported (Section V-B); GPU-cluster pairs, for which
the paper reports no rates, carry estimates chosen to reproduce Figure 9's
relative ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.arch import ArchSpec
from repro.models.quant import Quant


def _llama2_7b(name: str, quant: Quant) -> ArchSpec:
    return ArchSpec(name, n_layers=32, d_model=4096, n_heads=32, n_kv_heads=32,
                    d_ff=11008, vocab=32000, quant=quant)


def _llama2_13b(name: str, quant: Quant) -> ArchSpec:
    return ArchSpec(name, n_layers=40, d_model=5120, n_heads=40, n_kv_heads=40,
                    d_ff=13824, vocab=32000, quant=quant)


def _llama2_70b(name: str, quant: Quant) -> ArchSpec:
    return ArchSpec(name, n_layers=80, d_model=8192, n_heads=64, n_kv_heads=8,
                    d_ff=28672, vocab=32000, quant=quant)


MODEL_ZOO: dict[str, ArchSpec] = {
    # ----- Table I (CPU clusters) ------------------------------------------
    "dolphin-70b": _llama2_70b("Dolphin 2.1 70B", Quant.Q3_K_M),
    "tinyllama-1.1b": ArchSpec("TinyLlama OpenOrca 1.1B", n_layers=22, d_model=2048,
                               n_heads=32, n_kv_heads=4, d_ff=5632, vocab=32000,
                               quant=Quant.Q4_K_M),
    "orca2-7b": _llama2_7b("Orca 2 7B", Quant.Q4_K_M),
    "goliath-120b": ArchSpec("Goliath 120B", n_layers=137, d_model=8192, n_heads=64,
                             n_kv_heads=8, d_ff=28672, vocab=32000, quant=Quant.Q2_K),
    "xwin-7b": _llama2_7b("XWinLM 0.2 7B", Quant.Q4_K_M),
    "xwin-13b": _llama2_13b("XWinLM 0.1 13B", Quant.Q4_K_M),
    "falcon-180b": ArchSpec("Falcon 180B", n_layers=80, d_model=14848, n_heads=232,
                            n_kv_heads=8, d_ff=39595, vocab=65024, quant=Quant.Q3_K_M),
    "falcon-40b": ArchSpec("Falcon 40B", n_layers=60, d_model=8192, n_heads=128,
                           n_kv_heads=8, d_ff=21845, vocab=65024, quant=Quant.Q3_K_M),
    "falcon-7b": ArchSpec("Falcon 7B", n_layers=32, d_model=4544, n_heads=71,
                          n_kv_heads=1, d_ff=12117, vocab=65024, quant=Quant.Q3_K_M),
    # ----- Table III additions (GPU cluster) --------------------------------
    "senku-70b": _llama2_70b("Senku 70B", Quant.Q3_K_M),
    "llongorca-7b": _llama2_7b("LlongOrca 7B", Quant.Q4_K_M),
    "dolphin29-70b": ArchSpec("Dolphin 2.9 70B (Llama 3)", n_layers=80, d_model=8192,
                              n_heads=64, n_kv_heads=8, d_ff=28672, vocab=128256,
                              quant=Quant.Q3_K_M),
    "dolphin29-8b": ArchSpec("Dolphin 2.9 8B (Llama 3)", n_layers=32, d_model=4096,
                             n_heads=32, n_kv_heads=8, d_ff=14336, vocab=128256,
                             quant=Quant.Q4_K_M),
    "qwen-33b": ArchSpec("Qwen 33B", n_layers=64, d_model=5120, n_heads=40,
                         n_kv_heads=8, d_ff=27392, vocab=152064, quant=Quant.Q5_K),
    "qwen-7b": ArchSpec("Qwen 7B", n_layers=32, d_model=4096, n_heads=32,
                        n_kv_heads=32, d_ff=11008, vocab=152064, quant=Quant.Q5_K),
    "mixtral-8x22b": ArchSpec("Mixtral 8x22B", n_layers=56, d_model=6144, n_heads=48,
                              n_kv_heads=8, d_ff=16384, vocab=32000, quant=Quant.Q3_K_M,
                              n_experts=8, n_active_experts=2),
    "mistral-7b": ArchSpec("Mistral 7B", n_layers=32, d_model=4096, n_heads=32,
                           n_kv_heads=8, d_ff=14336, vocab=32000, quant=Quant.Q4_K_M),
    "yi-34b": ArchSpec("Yi 34B", n_layers=60, d_model=7168, n_heads=56,
                       n_kv_heads=8, d_ff=20480, vocab=64000, quant=Quant.Q3_K_M),
    "yi-9b": ArchSpec("Yi 9B", n_layers=48, d_model=4096, n_heads=32,
                      n_kv_heads=4, d_ff=11008, vocab=64000, quant=Quant.Q4_K_M),
}


@dataclass(frozen=True)
class ModelPair:
    """A (target, draft) pairing with its measured/estimated acceptance rate.

    Attributes:
        key: short identifier used by experiment harnesses.
        target: zoo key of the target model.
        draft: zoo key of the speculative model.
        acceptance: per-token probability the draft's greedy choice matches
            the target's (paper Section V-B where reported).
        label: legend text as it appears in the paper's figures.
        measured: True when ``acceptance`` is a paper-reported number.
    """

    key: str
    target: str
    draft: str
    acceptance: float
    label: str
    measured: bool = True

    @property
    def target_arch(self) -> ArchSpec:
        return MODEL_ZOO[self.target]

    @property
    def draft_arch(self) -> ArchSpec:
        return MODEL_ZOO[self.draft]


#: Table I pairings with the acceptance rates reported in Section V-B.
CPU_PAIRS: dict[str, ModelPair] = {
    "dolphin+tinyllama": ModelPair("dolphin+tinyllama", "dolphin-70b", "tinyllama-1.1b",
                                   0.79, "Dolphin-70B / TinyLlama"),
    "dolphin+orca2": ModelPair("dolphin+orca2", "dolphin-70b", "orca2-7b",
                               0.66, "Dolphin-70B / Orca2-7B"),
    "goliath+xwin7b": ModelPair("goliath+xwin7b", "goliath-120b", "xwin-7b",
                                0.52, "Goliath-120B / XWin-7B"),
    "goliath+xwin13b": ModelPair("goliath+xwin13b", "goliath-120b", "xwin-13b",
                                 0.61, "Goliath-120B / XWin-13B"),
    "falcon+7b": ModelPair("falcon+7b", "falcon-180b", "falcon-7b",
                           0.68675, "Falcon-180B / Falcon-7B"),
    "falcon+40b": ModelPair("falcon+40b", "falcon-180b", "falcon-40b",
                            0.6947, "Falcon-180B / Falcon-40B"),
}

#: Table III pairings (GPU cluster).  Acceptance rates are estimates — the
#: paper does not report them — chosen to reproduce Figure 9's ordering.
GPU_PAIRS: dict[str, ModelPair] = {
    "senku+tinyllama": ModelPair("senku+tinyllama", "senku-70b", "tinyllama-1.1b",
                                 0.72, "Senku-70B / TinyLlama", measured=False),
    "senku+llongorca": ModelPair("senku+llongorca", "senku-70b", "llongorca-7b",
                                 0.70, "Senku-70B / LlongOrca", measured=False),
    "dolphin21+tinyllama": ModelPair("dolphin21+tinyllama", "dolphin-70b", "tinyllama-1.1b",
                                     0.79, "Dolphin 2.1 70B / TinyLlama"),
    "dolphin29+8b": ModelPair("dolphin29+8b", "dolphin29-70b", "dolphin29-8b",
                              0.88, "Dolphin 2.9 70B / 8B (Llama 3)", measured=False),
    "qwen+7b": ModelPair("qwen+7b", "qwen-33b", "qwen-7b",
                         0.74, "Qwen 33B / 7B Q5_K", measured=False),
    "mixtral+mistral": ModelPair("mixtral+mistral", "mixtral-8x22b", "mistral-7b",
                                 0.62, "Mixtral 8x22B / Mistral 7B", measured=False),
    "yi+9b": ModelPair("yi+9b", "yi-34b", "yi-9b",
                       0.73, "Yi 34B / 9B", measured=False),
}

ALL_PAIRS: dict[str, ModelPair] = {**CPU_PAIRS, **GPU_PAIRS}


def get_model(key: str) -> ArchSpec:
    """Look up a zoo model by key, with a helpful error."""
    try:
        return MODEL_ZOO[key]
    except KeyError:
        raise KeyError(f"unknown model {key!r}; available: {sorted(MODEL_ZOO)}") from None


def get_pair(key: str) -> ModelPair:
    """Look up a model pair by key, with a helpful error."""
    try:
        return ALL_PAIRS[key]
    except KeyError:
        raise KeyError(f"unknown pair {key!r}; available: {sorted(ALL_PAIRS)}") from None
