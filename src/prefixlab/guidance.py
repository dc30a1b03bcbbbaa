"""Logit-space guidance algebra and per-step branch orchestration.

CFG and the prefix contrast are one rule, ``extrapolate``: (1+s) * base -
s * reference, elementwise, with two references. CFG's is the null-condition
branch, the prefix contrast's the corrupted or exact-marginal (weak-prefix)
branch. ``compose_cfg_vpg`` applies it per branch pair (condition, null
condition) and then across the genuine and weak-prefix pairs, which equals
the four-term closed form

    (1+lam)(1+gamma) l(c,gen) - (1+lam) gamma l(null,gen)
    - lam (1+gamma) l(c,corr) + lam gamma l(null,corr).

The single-exponentiation alternative (raising both compatibility terms in
one raw-model conditional) is a different sampler and is deliberately not
implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corruption import CorruptionPlan, CorruptionVariant, apply_corruption, selection_size
from .errors import (INTEGER, NONNEGATIVE, UNIT_INTERVAL, GuidanceConfigError, IllDefinedLawError,
                     InvalidInputError, MissingBranchError, bounded, check_fields, one_of)
from .model import (
    Condition,
    CountModel,
    NULL_CONDITION,
    SignedEmbedding,
    TabularModel,
    predict_logits,
)
from .oracle import prefix_marginal_sites
from .tokenizer import Codebook, ScaleSchedule


@dataclass(frozen=True)
class GuidanceConfig:
    """One record drives a whole rollout.

    ``scale_mask`` limits where the prefix contrast applies (None = every
    scale). ``reference`` selects the weak-prefix branch: "corrupted" runs
    the predictor on a corrupted prefix embedding, "exact-marginal" injects
    the brute-force per-site prefix marginal (enumerable models only).
    """

    gamma: float = bounded(0.0, NONNEGATIVE)
    lam: float = bounded(0.0, NONNEGATIVE, "lambda")
    fraction: float = bounded(0.0, UNIT_INTERVAL, "n_p")
    variant: CorruptionVariant = CorruptionVariant.SAME_SCALE_FULL_EMBEDDING
    scale_mask: frozenset[int] | None = bounded(None, INTEGER)
    reference: str = bounded("exact-marginal", one_of("corrupted", "exact-marginal"))

    def __post_init__(self):
        check_fields(self, GuidanceConfigError)
        if self.scale_mask is not None:
            object.__setattr__(self, "scale_mask", frozenset(int(k) for k in self.scale_mask))

    def masked_in(self, k: int) -> bool:
        return self.scale_mask is None or k in self.scale_mask

    def contrasts(self, k: int) -> bool:
        """Whether the step at scale k has a weak-prefix branch pair."""
        return self.lam > 0 and k >= 2 and self.masked_in(k)

    def draws_plan(self, k: int, schedule: ScaleSchedule) -> bool:
        """Whether the step at scale k on ``schedule`` runs under a corruption
        plan: then its weak-prefix pair depends on the plan, not only on the
        prefix. A site-selecting variant whose n_p × (prefix sites of k)
        rounds to zero selects no site, so its step needs no plan and its
        corrupted pair is the clean pair; ``uniform_prefix`` always draws."""
        return self.contrasts(k) and self.reference == "corrupted" and (
            self.variant is CorruptionVariant.UNIFORM_PREFIX
            or selection_size(schedule, k, self.fraction) > 0
        )


@dataclass(frozen=True)
class BranchLogits:
    """Up to four branch evaluations feeding one guided step."""

    cond_gen: np.ndarray
    null_gen: np.ndarray | None = None
    cond_corr: np.ndarray | None = None
    null_corr: np.ndarray | None = None


def extrapolate(base: np.ndarray, reference: np.ndarray, strength) -> np.ndarray:
    """(1+strength) * base - strength * reference."""
    if base.shape != reference.shape:
        raise InvalidInputError(f"logit shape mismatch: {base.shape} vs {reference.shape}")
    return (1 + strength) * base - strength * reference


def _cfg(cond: np.ndarray, null: np.ndarray | None, gamma: float, which: str) -> np.ndarray:
    """CFG on one branch pair; the null branch is read only when gamma > 0."""
    if gamma == 0:
        return cond
    if null is None:
        raise MissingBranchError(f"gamma > 0 needs the null-condition {which} branch")
    return extrapolate(cond, null, gamma)


def compose_cfg_vpg(branches: BranchLogits, gamma: float, lam: float) -> np.ndarray:
    """CFG per prefix branch pair first, then the prefix contrast between them."""
    g_gen = _cfg(branches.cond_gen, branches.null_gen, gamma, "genuine")
    if lam == 0:
        return g_gen
    if branches.cond_corr is None:
        raise MissingBranchError("lam > 0 needs the corrupted-prefix branch")
    g_corr = _cfg(branches.cond_corr, branches.null_corr, gamma, "corrupted")
    return extrapolate(g_gen, g_corr, lam)


@dataclass(frozen=True, eq=False)
class GuidedStep:
    """Result of one guided prediction, with its audit trail.

    Its arrays are read-only, so the samples of a rollout whose steps have
    the same branch inputs can share one step; it hashes by identity.
    """

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
    plan: CorruptionPlan | None = None,
    signed: SignedEmbedding | None = None,
) -> GuidedStep:
    """Evaluate only the branches the configuration needs and compose them.

    ``prefix`` is the generated token history (list of TokenMap). A
    corrupted branch runs on the prefix corrupted under ``plan``, signed in
    full; the step draws nothing at random, so where ``config.draws_plan``
    holds and no plan is given it raises IllDefinedLawError. Without a plan
    (as where the variant selects no site) the corrupted pair is the clean
    pair. A count model's clean branches read ``signed``, the prefix's signed
    embedding, when the caller carries it; otherwise the prefix is embedded
    and signed here.
    """
    maps = list(prefix)
    k = len(maps) + 1

    needs_cfg = config.gamma > 0
    needs_vpg = config.contrasts(k)

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

    def pair(evaluate):
        """A branch pair: ``evaluate`` at the condition and, only when
        gamma > 0, at the null condition."""
        return evaluate(condition), evaluate(NULL_CONDITION) if needs_cfg else None

    def predicted(branch_signed):
        return pair(lambda c: predict_logits(model, c, maps, book=book, signed=branch_signed))

    gen = predicted(signed)
    corr = (None, None)
    used_plan = None
    if needs_vpg:
        if config.reference == "exact-marginal":
            if not isinstance(model, TabularModel):
                raise GuidanceConfigError(
                    "exact-marginal reference requires an enumerable tabular model"
                )
            corr = pair(lambda c: np.log(prefix_marginal_sites(model, c, k)))
        else:
            if not isinstance(model, CountModel):
                raise GuidanceConfigError(
                    "corrupted-prefix reference requires an embedding-consuming model"
                )
            used_plan = plan
            if plan is None and config.draws_plan(k, model.schedule):
                raise IllDefinedLawError(f"the corrupted branch at scale {k} needs a plan")
            corr = gen if plan is None else predicted(model.sign(apply_corruption(
                signed.embedding, plan, book, model.schedule, model.params)))

    branches = BranchLogits(*gen, *corr)
    lam = config.lam if needs_vpg else 0.0
    logits = compose_cfg_vpg(branches, config.gamma, lam)
    for array in (logits, *gen, *corr):
        if array is not None:
            array.setflags(write=False)
    return GuidedStep(k, logits, branches, used_plan)
