"""craftlora: desk-scale content/style adapter toolkit.

Rank-limited backbone projection, frequency-split contrastive pairs,
disjoint-layer low-rank adapters with prompt routing, and asymmetric
classifier-free guidance on a small trainable diffusion denoiser.
"""

from .adapters import (
    LayerRouting,
    LoraAdapter,
    LoraTrainer,
    adapter_loss,
    adapter_terms,
    aggregate_weights,
    default_routing,
    make_adapter,
)
from .denoiser import (
    Backbone,
    DenoiserTrainer,
    NoiseSchedule,
    ddpm_step,
    init_backbone,
)
from .frequency import FrequencyMask, freq_mask_filter, gaussian_lowpass, style_residual
from .guidance import (
    GuidedSampler,
    gamma_schedule,
    guided_eps,
    guided_eps_parts,
    plan_guidance,
    temporal_alpha,
)
from .linalg import householder_qr, project_out, qr_backward
from .metrics import (
    EvalReport,
    ImageFeatureExtractor,
    content_preservation,
    cross_influence,
    style_fidelity,
)
from .pairs import (
    ContrastPair,
    generate_pair_dataset,
    load_dataset,
    save_dataset,
)
from .prompts import PromptSpec, encode_semantic, parse_prompt
from .subspace import (
    RankSchedule,
    SubspaceBases,
    TrunkFinetuner,
    apply_rank_limited_update,
    init_bases,
    merge_subspaces,
    trunk_loss,
)

__version__ = "0.1.0"

__all__ = [
    "Backbone",
    "ContrastPair",
    "DenoiserTrainer",
    "EvalReport",
    "FrequencyMask",
    "GuidedSampler",
    "ImageFeatureExtractor",
    "LayerRouting",
    "LoraAdapter",
    "LoraTrainer",
    "NoiseSchedule",
    "PromptSpec",
    "RankSchedule",
    "SubspaceBases",
    "TrunkFinetuner",
    "adapter_loss",
    "adapter_terms",
    "aggregate_weights",
    "apply_rank_limited_update",
    "content_preservation",
    "cross_influence",
    "ddpm_step",
    "default_routing",
    "encode_semantic",
    "freq_mask_filter",
    "gamma_schedule",
    "gaussian_lowpass",
    "generate_pair_dataset",
    "guided_eps",
    "guided_eps_parts",
    "householder_qr",
    "init_backbone",
    "init_bases",
    "load_dataset",
    "make_adapter",
    "merge_subspaces",
    "parse_prompt",
    "plan_guidance",
    "project_out",
    "qr_backward",
    "save_dataset",
    "style_fidelity",
    "style_residual",
    "temporal_alpha",
    "trunk_loss",
]
