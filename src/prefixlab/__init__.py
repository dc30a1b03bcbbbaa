"""Desk-scale laboratory for sampling-time guidance in next-scale
autoregressive generation: CFG and prefix-contrast guidance as logit algebra,
corrupted-prefix references, and brute-force marginalization oracles that
verify the underlying Bayes-ratio identities on enumerable toy models.

Importing the package loads none of its modules. Each name below is looked
up in its module when it is read (PEP 562), every time: nothing is cached
here, so ``prefixlab.X`` is always the module's current ``X``.
"""

import importlib

__version__ = "0.1.0"

# Re-exported name -> the module that defines it.
_EXPORTS = {
    **dict.fromkeys(("CorruptionPlan", "CorruptionVariant", "apply_corruption",
                     "plan_corruption"), "corruption"),
    **dict.fromkeys(("GuidanceConfig", "SamplerConfig", "VerifySpec"), "config"),
    **dict.fromkeys(("BranchLogits", "compose_cfg_vpg", "extrapolate", "guided_step"),
                    "guidance"),
    **dict.fromkeys(("CountModel", "NULL_CONDITION", "PrefixEmbedding", "TabularModel",
                     "build_tabular", "embed_prefix", "fit_count_model", "predict_logits"),
                    "model"),
    **dict.fromkeys(("Distribution", "augmented_cfg", "augmented_vpg", "enumerate_prefixes",
                     "prefix_marginal", "prefix_posterior", "verify_identities"), "oracle"),
    **dict.fromkeys(("rollout_distribution", "rollouts", "truncate_and_sample"), "sampler"),
    **dict.fromkeys(("Codebook", "ScaleSchedule", "TokenMap", "accumulate_latent",
                     "dequantize", "encode_multiscale", "upsample"), "tokenizer"),
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
