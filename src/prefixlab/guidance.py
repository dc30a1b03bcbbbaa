"""Logit-space guidance algebra and per-step branch orchestration.

Both combiners are the same extrapolation, (1+s) * base - s * reference,
applied elementwise; the sequential CFG-then-prefix composition equals the
four-term closed form

    (1+lam)(1+gamma) l(c,gen) - (1+lam) gamma l(null,gen)
    - lam (1+gamma) l(c,corr) + lam gamma l(null,corr).

The single-exponentiation alternative (raising both compatibility terms in
one raw-model conditional) is a different sampler and is deliberately not
implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corruption import CorruptionPlan, CorruptionVariant, apply_corruption, plan_corruption
from .errors import (
    GuidanceConfigError,
    IllDefinedLawError,
    InvalidInputError,
    MissingBranchError,
)
from .model import (
    Condition,
    CountModel,
    NULL_CONDITION,
    SignedEmbedding,
    TabularModel,
    predict_logits,
)
from .oracle import prefix_marginal_sites
from .tokenizer import Codebook


@dataclass(frozen=True)
class GuidanceConfig:
    """One record drives a whole rollout.

    ``scale_mask`` limits where the prefix contrast applies (None = every
    scale). ``reference`` selects the weak-prefix branch: "corrupted" runs
    the predictor on a corrupted prefix embedding, "exact-marginal" injects
    the brute-force per-site prefix marginal (enumerable models only).
    """

    gamma: float = 0.0
    lam: float = 0.0
    fraction: float = 0.0
    variant: CorruptionVariant = CorruptionVariant.SAME_SCALE_FULL_EMBEDDING
    scale_mask: frozenset[int] | None = None
    reference: str = "exact-marginal"

    def __post_init__(self):
        for name in ("gamma", "lam"):
            if not 0 <= getattr(self, name) < math.inf:
                raise GuidanceConfigError(
                    f"guidance strength {name} must be finite and >= 0, "
                    f"got {getattr(self, name)!r}"
                )
        if not math.isfinite(self.fraction):
            raise GuidanceConfigError(
                f"corruption fraction must be finite, got {self.fraction!r}"
            )
        if self.reference not in ("corrupted", "exact-marginal"):
            raise GuidanceConfigError(f"unknown reference mode {self.reference!r}")
        if self.scale_mask is not None:
            object.__setattr__(self, "scale_mask", frozenset(int(k) for k in self.scale_mask))

    def masked_in(self, k: int) -> bool:
        return self.scale_mask is None or k in self.scale_mask


@dataclass(frozen=True)
class BranchLogits:
    """Up to four branch evaluations feeding one guided step."""

    cond_gen: np.ndarray
    null_gen: np.ndarray | None = None
    cond_corr: np.ndarray | None = None
    null_corr: np.ndarray | None = None


def _check_shapes(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise InvalidInputError(f"logit shape mismatch: {a.shape} vs {b.shape}")


def cfg_combine(cond: np.ndarray, null: np.ndarray, gamma: float) -> np.ndarray:
    """(1+gamma) * cond - gamma * null."""
    _check_shapes(cond, null)
    return (1 + gamma) * cond - gamma * null


def vpg_combine(gen: np.ndarray, corr: np.ndarray, lam: float) -> np.ndarray:
    """(1+lam) * gen - lam * corr."""
    _check_shapes(gen, corr)
    return (1 + lam) * gen - lam * corr


def compose_cfg_vpg(branches: BranchLogits, gamma: float, lam: float) -> np.ndarray:
    """CFG per prefix branch first, then the prefix contrast between them."""
    if gamma > 0 and branches.null_gen is None:
        raise MissingBranchError("gamma > 0 needs the null-condition genuine branch")
    g_gen = branches.cond_gen if gamma == 0 else cfg_combine(
        branches.cond_gen, branches.null_gen, gamma
    )
    if lam == 0:
        return g_gen
    if branches.cond_corr is None:
        raise MissingBranchError("lam > 0 needs the corrupted-prefix branch")
    if gamma > 0 and branches.null_corr is None:
        raise MissingBranchError("gamma > 0 needs the null-condition corrupted branch")
    g_corr = branches.cond_corr if gamma == 0 else cfg_combine(
        branches.cond_corr, branches.null_corr, gamma
    )
    return vpg_combine(g_gen, g_corr, lam)


@dataclass(frozen=True)
class GuidedStep:
    """Result of one guided prediction, with its audit trail."""

    k: int
    logits: np.ndarray
    branches: BranchLogits
    plan: CorruptionPlan | None = None

    @property
    def evaluations(self) -> int:
        """Branches evaluated; an injected exact marginal counts as one."""
        b = self.branches
        return sum(x is not None for x in (b.cond_gen, b.null_gen, b.cond_corr, b.null_corr))


def guided_step(
    model,
    condition: Condition,
    prefix,
    config: GuidanceConfig,
    *,
    book: Codebook | None = None,
    plan_seed: int | None = None,
    plan: CorruptionPlan | None = None,
    signed: SignedEmbedding | None = None,
) -> GuidedStep:
    """Evaluate only the branches the configuration needs and compose them.

    ``prefix`` is the generated token history (list of TokenMap). A
    corrupted branch runs under ``plan`` (replay and exact rollout laws fix
    it), else under a plan drawn from ``plan_seed``; with neither it raises
    IllDefinedLawError. A count model's clean branches read ``signed``, the
    prefix's signed embedding, when the caller carries it; otherwise the
    prefix is embedded and signed here.
    """
    maps = list(prefix)
    k = len(maps) + 1

    needs_cfg = config.gamma > 0
    needs_vpg = config.lam > 0 and k >= 2 and config.masked_in(k)

    if needs_cfg and isinstance(model, CountModel) and not model.include_null:
        raise GuidanceConfigError(
            "gamma > 0 but the count model was fitted without null-condition rows"
        )

    if isinstance(model, CountModel):
        if book is None:
            raise InvalidInputError("count-model guidance needs the codebook")
        if signed is None:
            signed = model.embed(maps, book)
        elif signed.embedding.step != k:
            raise InvalidInputError(
                f"signed embedding is for step {signed.embedding.step}, "
                f"the prefix is for step {k}"
            )
    elif signed is not None:
        raise InvalidInputError("only a count model reads a signed embedding")

    def branch(cond, branch_signed):
        return predict_logits(model, cond, maps, book=book, signed=branch_signed)

    cond_gen = branch(condition, signed)
    null_gen = branch(NULL_CONDITION, signed) if needs_cfg else None

    cond_corr = null_corr = None
    used_plan = None
    if needs_vpg:
        if config.reference == "exact-marginal":
            if not isinstance(model, TabularModel):
                raise GuidanceConfigError(
                    "exact-marginal reference requires an enumerable tabular model"
                )
            cond_corr = np.log(prefix_marginal_sites(model, condition, k))
            if needs_cfg:
                null_corr = np.log(prefix_marginal_sites(model, NULL_CONDITION, k))
        else:
            if not isinstance(model, CountModel):
                raise GuidanceConfigError(
                    "corrupted-prefix reference requires an embedding-consuming model"
                )
            if plan is None and plan_seed is None:
                raise IllDefinedLawError(
                    f"the corrupted branch at scale {k} needs a plan or a plan seed"
                )
            used_plan = plan if plan is not None else plan_corruption(
                model.schedule, k, config.fraction, config.variant, plan_seed, book=book
            )
            corrupted = model.sign(apply_corruption(
                signed.embedding, used_plan, book, model.schedule, model.params
            ))
            cond_corr = branch(condition, corrupted)
            if needs_cfg:
                null_corr = branch(NULL_CONDITION, corrupted)

    branches = BranchLogits(cond_gen, null_gen, cond_corr, null_corr)
    lam = config.lam if needs_vpg else 0.0
    logits = compose_cfg_vpg(branches, config.gamma, lam)
    return GuidedStep(k, logits, branches, used_plan)
