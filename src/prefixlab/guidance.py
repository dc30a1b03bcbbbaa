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

from dataclasses import dataclass, field

import numpy as np

from .corruption import CorruptionPlan, CorruptionVariant, apply_corruption, selection_size
from .errors import (INTEGER, NONNEGATIVE, UNIT_INTERVAL, GuidanceConfigError, IllDefinedLawError,
                     InvalidInputError, MissingBranchError, bounded, check_fields, one_of)
from .model import (
    Condition,
    CountModel,
    NULL_CONDITION,
    PrefixEmbedding,
    SignedEmbedding,
    TabularModel,
    predict_logits,
    prefix_key,
    prefix_maps,
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

    def __iter__(self):
        return iter((self.cond_gen, self.null_gen, self.cond_corr, self.null_corr))


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
    """Result of one guided prediction for P prefixes of one scale, with its
    audit trail.

    ``logits`` and the branch arrays of a stacked step have a leading P
    axis, and ``plans`` holds each row's corruption plan (None where the row
    has none). ``row(i)`` is row i as a one-prefix step: its arrays are
    (h, w, V), and ``plan`` is its plan. The arrays are read-only, so the
    samples of a rollout whose steps have the same branch inputs can share
    one step; it hashes by identity.
    """

    k: int
    logits: np.ndarray
    branches: BranchLogits
    plans: tuple[CorruptionPlan | None, ...]
    # Each row's record, built once: the samples that share a row share it.
    _rows: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def plan(self) -> CorruptionPlan | None:
        """The corruption plan of a one-prefix step."""
        if len(self.plans) != 1:
            raise InvalidInputError(f"a stack of {len(self.plans)} rows has a plan per row")
        return self.plans[0]

    @property
    def evaluations(self) -> int:
        """Branches evaluated, summed over the rows; an injected exact
        marginal counts as one per row."""
        return len(self.plans) * sum(x is not None for x in self.branches)

    def row(self, i: int) -> "GuidedStep":
        """Row i of a stacked step, as the one-prefix step of its prefix."""
        record = self._rows.get(i)
        if record is None:
            record = self._rows[i] = GuidedStep(
                self.k, self.logits[i],
                BranchLogits(*(x if x is None else x[i] for x in self.branches)),
                (self.plans[i],))
        return record


def guided_step(
    model,
    condition: Condition,
    prefix,
    config: GuidanceConfig,
    *,
    book: Codebook | None = None,
    plan: CorruptionPlan | None = None,
    signed: SignedEmbedding | None = None,
    stack: bool = False,
) -> GuidedStep:
    """Evaluate only the branches the configuration needs and compose them.

    ``prefix`` is the generated token history (list of TokenMap, or a prefix
    key). A corrupted branch runs on the prefix corrupted under ``plan``,
    signed in full; the step draws nothing at random, so where
    ``config.draws_plan`` holds and no plan is given it raises
    IllDefinedLawError. Without a plan (as where the variant selects no
    site) the corrupted pair is the clean pair. A count model's clean
    branches read ``signed``, the prefix's signed embedding, when the caller
    carries it; otherwise the prefix is embedded and signed here.

    With ``stack``, ``prefix`` is a stack of P prefixes of one scale, and
    ``plan`` and ``signed``, where given, hold one entry per prefix (a
    row's plan may be None). The step is then evaluated for the whole stack
    at once: a tabular model's rows are gathered, a count model's logits are
    read once per distinct signature, and the corrupted rows are corrupted
    and signed together. Its arrays have a leading P axis. The one-prefix
    call is the P = 1 case and returns that row.
    """
    if stack:
        prefixes = [list(p) for p in prefix]
        plans = [None] * len(prefixes) if plan is None else list(plan)
        signs = None if signed is None else list(signed)
    else:
        prefixes, plans, signs = [list(prefix)], [plan], None if signed is None else [signed]
    if not prefixes or len(plans) != len(prefixes) or (
            signs is not None and len(signs) != len(prefixes)):
        raise InvalidInputError("a stack takes one plan and one signed embedding per prefix")
    k = len(prefixes[0]) + 1
    if any(len(p) != k - 1 for p in prefixes):
        raise InvalidInputError("the prefixes of a stack are for one step")

    needs_cfg = config.gamma > 0
    needs_vpg = config.contrasts(k)

    def pair(evaluate):
        """A branch pair: ``evaluate`` at the condition and, only when
        gamma > 0, at the null condition."""
        return evaluate(condition), evaluate(NULL_CONDITION) if needs_cfg else None

    if isinstance(model, CountModel):
        if book is None:
            raise InvalidInputError("count-model guidance needs the codebook")
        if signs is None:
            signs = [model.embed(prefix_maps(prefix_key(p), model.schedule), book)
                     for p in prefixes]
        for s in signs:
            if s.embedding.step != k:
                raise InvalidInputError(
                    f"signed embedding is for step {s.embedding.step}, "
                    f"the prefix is for step {k}"
                )
        inputs = signs

        def predicted(rows):
            """The pair on signed embeddings, read once per distinct signature."""
            def evaluate(c):
                by_signature = {s.signature: s for s in rows}
                logits = {sig: predict_logits(model, c, (), signed=s)
                          for sig, s in by_signature.items()}
                return np.stack([logits[s.signature] for s in rows])
            return pair(evaluate)
    elif signs is not None:
        raise InvalidInputError("only a count model reads a signed embedding")
    elif isinstance(model, TabularModel):
        inputs = [prefix_key(p) for p in prefixes]

        def predicted(keys):
            """The pair on prefix keys, their table rows gathered."""
            return pair(lambda c: np.log(np.stack([model.row(c, k, key) for key in keys])))
    else:
        raise InvalidInputError(f"unknown predictor type {type(model)!r}")

    gen = predicted(inputs)
    corr = (None, None)
    if needs_vpg:
        if config.reference == "exact-marginal":
            if not isinstance(model, TabularModel):
                raise GuidanceConfigError(
                    "exact-marginal reference requires an enumerable tabular model"
                )
            corr = pair(lambda c: np.broadcast_to(
                np.log(prefix_marginal_sites(model, c, k)), gen[0].shape))
        else:
            if not isinstance(model, CountModel):
                raise GuidanceConfigError(
                    "corrupted-prefix reference requires an embedding-consuming model"
                )
            if any(p is None for p in plans) and config.draws_plan(k, model.schedule):
                raise IllDefinedLawError(f"the corrupted branch at scale {k} needs a plan")
            planned = [i for i, p in enumerate(plans) if p is not None]
            corr = gen
            if planned:
                # Rows without a plan keep their clean embedding.
                corrupted = dict(zip(planned, model.sign(apply_corruption(
                    PrefixEmbedding.stack([signs[i].embedding for i in planned]),
                    [plans[i] for i in planned], book, model.schedule, model.params))))
                corr = predicted([corrupted.get(i, s) for i, s in enumerate(signs)])

    branches = BranchLogits(*gen, *corr)
    lam = config.lam if needs_vpg else 0.0
    logits = compose_cfg_vpg(branches, config.gamma, lam)
    for array in (logits, *branches):
        if array is not None:
            array.setflags(write=False)
    used = tuple(plans) if needs_vpg and config.reference == "corrupted" else (None,) * len(plans)
    step = GuidedStep(k, logits, branches, used)
    return step if stack else step.row(0)
