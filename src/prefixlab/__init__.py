"""Desk-scale laboratory for sampling-time guidance in next-scale
autoregressive generation: CFG and prefix-contrast guidance as logit algebra,
corrupted-prefix references, and brute-force marginalization oracles that
verify the underlying Bayes-ratio identities on enumerable toy models."""

from .corruption import CorruptionPlan, CorruptionVariant, apply_corruption, plan_corruption
from .guidance import (
    BranchLogits,
    GuidanceConfig,
    compose_cfg_vpg,
    extrapolate,
    guided_step,
)
from .model import (
    CountModel,
    NULL_CONDITION,
    PrefixEmbedding,
    TabularModel,
    build_tabular,
    embed_prefix,
    fit_count_model,
    predict_logits,
)
from .oracle import (
    Distribution,
    VerifySpec,
    augmented_cfg,
    augmented_vpg,
    enumerate_prefixes,
    prefix_marginal,
    prefix_posterior,
    verify_identities,
)
from .sampler import SamplerConfig, rollout_distribution, rollouts, truncate_and_sample
from .tokenizer import (
    Codebook,
    ScaleSchedule,
    TokenMap,
    accumulate_latent,
    dequantize,
    encode_multiscale,
    upsample,
)

__version__ = "0.1.0"
