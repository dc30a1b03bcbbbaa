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
from typing import Sequence

import numpy as np

from .config import GuidanceConfig
from .corruption import CorruptionPlan, check_corruptible, corrupted_signatures
from .errors import IllDefinedLawError, InvalidInputError, MissingBranchError
from .model import Condition, CountModel, NULL_CONDITION, SignedEmbedding, TabularModel
from .oracle import prefix_marginal_sites
from .tokenizer import Codebook


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


def _cfg(cond: np.ndarray, null: np.ndarray | None, gamma, which: str) -> np.ndarray:
    """CFG on one branch pair; the null branch is read only when a gamma is
    > 0, and all-zero strengths give ``cond`` broadcast over their axes."""
    if not np.any(gamma):
        return np.broadcast_to(cond, np.broadcast_shapes(np.shape(gamma), cond.shape))
    if null is None:
        raise MissingBranchError(f"gamma > 0 needs the null-condition {which} branch")
    return np.where(gamma > 0, extrapolate(cond, null, gamma), cond)


def compose_cfg_vpg(branches: BranchLogits, gamma, lam) -> np.ndarray:
    """CFG per prefix branch pair first, then the prefix contrast between them.

    ``gamma`` and ``lam`` are each one strength, or a column of one strength
    per row of a stack, shape (S, 1, ..., 1); the result has the columns'
    axes, also where every strength is 0. A column takes the same IEEE
    operations, element by element, as each row's own strength would, and a
    row whose strength is 0 takes the branch that strength would
    extrapolate exactly (``np.where``), not the value its zero extrapolates
    to. ``guided_step`` passes one gamma and a lam column,
    ``oracle.verify_identities`` a column of each.
    """
    g_gen = _cfg(branches.cond_gen, branches.null_gen, gamma, "genuine")
    if not np.any(lam):
        return np.broadcast_to(g_gen, np.broadcast_shapes(np.shape(lam), g_gen.shape))
    if branches.cond_corr is None:
        raise MissingBranchError("lam > 0 needs the corrupted-prefix branch")
    g_corr = _cfg(branches.cond_corr, branches.null_corr, gamma, "corrupted")
    return np.where(lam > 0, extrapolate(g_gen, g_corr, lam), g_gen)


def _pair(evaluate, condition: Condition, needs_cfg: bool) -> tuple:
    """A branch pair: ``evaluate`` at ``condition`` and, only when gamma > 0
    (``needs_cfg``), at the null condition."""
    return evaluate(condition), evaluate(NULL_CONDITION) if needs_cfg else None


def gather_branches(model, condition: Condition, k: int, signatures: Sequence,
                    needs_cfg: bool, marginal: bool, book: Codebook | None = None) -> BranchLogits:
    """The branches of a step at scale k on a stack's ``signatures``, read by
    either model kind's ``branch_logits``: at ``condition`` and, when
    ``needs_cfg``, at the null condition; when the step contrasts against
    the exact marginal (``marginal``), the log exact per-site marginals at
    both too, broadcast over the rows. ``guided_step`` takes its clean and
    exact-marginal pairs from here, and ``oracle.verify_identities`` judges
    their composition on a tabular model's enumerated prefix keys against
    its own reads of the same rows and marginals."""
    gen = _pair(lambda c: model.branch_logits(c, k, signatures), condition, needs_cfg)
    corr = () if not marginal else _pair(lambda c: np.broadcast_to(
        np.log(prefix_marginal_sites(model, c, k, book=book)), gen[0].shape), condition, needs_cfg)
    return BranchLogits(*gen, *corr)


@dataclass(frozen=True, eq=False)
class GuidedStep:
    """Result of one guided prediction for P prefixes of one scale, with its
    audit trail.

    ``logits`` and the branch arrays of a stacked step have a leading P
    axis, ``plans`` holds each row's corruption plan (None where the row
    has none), and ``contrasted`` whether each row has a weak-prefix branch
    pair: a row without one takes nothing from the corrupted branch
    arrays. ``row(i)`` is row i as a one-prefix step: its arrays are
    (h, w, V), ``plans`` holds its plan alone, and it has corrupted branches
    only if it contrasts. The arrays are read-only, so the
    samples of a rollout whose steps have the same branch inputs can share
    one step; it hashes by identity.
    """

    k: int
    logits: np.ndarray
    branches: BranchLogits
    plans: tuple[CorruptionPlan | None, ...]
    contrasted: tuple[bool, ...]
    # Each row's record, built once: the samples that share a row share it.
    _rows: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def evaluations(self) -> int:
        """Branches evaluated, summed row by row over the branches each row
        used; an injected exact marginal counts as one per row."""
        cond_gen, null_gen, cond_corr, null_corr = (x is not None for x in self.branches)
        return (len(self.plans) * (cond_gen + null_gen)
                + sum(self.contrasted) * (cond_corr + null_corr))

    def row(self, i: int) -> "GuidedStep":
        """Row i of a stacked step, as the one-prefix step of its prefix."""
        record = self._rows.get(i)
        if record is None:
            flag = self.contrasted[i]
            branches = [x if x is None else x[i] for x in self.branches]
            if not flag:
                branches[2:] = None, None
            record = self._rows[i] = GuidedStep(
                self.k, self.logits[i], BranchLogits(*branches), (self.plans[i],), (flag,))
        return record


def guided_step(
    model,
    condition: Condition,
    prefix,
    config: GuidanceConfig | Sequence[GuidanceConfig],
    *,
    book: Codebook | None = None,
    plan: CorruptionPlan | Sequence[CorruptionPlan | None] | None = None,
) -> GuidedStep:
    """Evaluate only the branches the configuration needs and compose them.

    ``prefix`` is the generated token history: one prefix (list of
    TokenMap, or a prefix key), or the model's signed stack of P prefixes
    of one step, built by its ``embed`` and ``extend``. A corrupted branch
    runs on the prefix corrupted under ``plan``, signed in full; the step
    draws nothing at random, so where ``config.draws_plan`` holds and no
    plan is given it raises IllDefinedLawError. Without a plan (as where
    the variant selects no site) the corrupted pair is the clean pair.

    A signed stack is taken only by the model kind that signed it; its
    ``step`` is k and its signature list has one entry per row. ``plan``,
    where given, then holds one plan per row (a row's plan may be None),
    and ``config`` is one config for every row, or a sequence of one per
    row; the rows' configs share gamma and reference, and each row
    contrasts, with its own lambda, where its own config does. The step is
    evaluated for the whole stack at once, the same way for either model
    kind: the clean pair (and the exact-marginal pair, walked by
    ``prefix_marginal_sites`` with ``book``) comes from ``gather_branches``,
    and the corrupted pair is ``branch_logits`` of
    ``corruption.corrupted_signatures``, the planned rows corrupted and
    signed together. Under the corrupted reference a contrasting step on a
    stack with no embedding (a tabular stack) raises GuidanceConfigError for
    a variant that corrupts embeddings only, and one on a count stack needs
    the codebook. Its arrays have a leading P axis. Any other ``prefix``,
    a list of prefixes too, is one prefix: it takes one plan or None and
    one config (else InvalidInputError), and the model's ``embed`` checks
    it and signs it as a stack of one row, the P = 1 case, whose row is
    returned.

    ``gather_branches`` is also the gather that ``oracle.verify_identities``
    composes and judges on a tabular model at every strength it checks. What
    ``verify`` does not see is how this function turns configs into
    strengths (a contrast only from k >= 2, the scale mask, one lambda per
    row); unit tests cover that.
    """
    if not isinstance(model, (TabularModel, CountModel)):
        raise InvalidInputError(f"unknown predictor type {type(model)!r}")
    one = not isinstance(prefix, SignedEmbedding)
    if one and not (isinstance(plan, (CorruptionPlan, type(None)))
                    and isinstance(config, GuidanceConfig)):
        raise InvalidInputError("one prefix takes one plan (or None) and one config")
    signed = model.embed([prefix], book) if one else prefix
    if (signed.embedding is None) != isinstance(model, TabularModel):
        raise InvalidInputError("a signed stack is taken only by the model kind that signed it")
    size = len(signed.signature)
    plans = [plan] if one else [None] * size if plan is None else list(plan)
    configs = [config] * size if isinstance(config, GuidanceConfig) else list(config)
    if not size or len(plans) != size or len(configs) != size:
        raise InvalidInputError(
            "a stack takes one plan per prefix, and one config or one per prefix")
    k = signed.step
    # Each distinct config is asked once; many rows share one.
    by_id = {id(c): c for c in configs}
    gamma, reference = configs[0].gamma, configs[0].reference
    if any(c.gamma != gamma or c.reference != reference for c in by_id.values()):
        raise InvalidInputError("the rows of a stack share gamma and reference")

    contrasts = {i: c.contrasts(k) for i, c in by_id.items()}
    contrasted = tuple(contrasts[id(c)] for c in configs)
    exact = reference == "exact-marginal"
    # The plan of each row that contrasts against a corrupted prefix.
    used = tuple(p if flag and not exact else None for p, flag in zip(plans, contrasted))
    branches = gather_branches(model, condition, k, signed.signature, gamma > 0,
                               any(contrasted) and exact, book)
    if any(contrasted) and not exact:
        check_corruptible(signed, {c.variant for c, flag in zip(configs, contrasted) if flag}, book)
        draws = {i: c.draws_plan(k, model.schedule) for i, c in by_id.items()}
        if any(p is None and draws[id(c)] for p, c in zip(plans, configs)):
            raise IllDefinedLawError(f"the corrupted branch at scale {k} needs a plan")
        # A row without a plan keeps its clean signature, and without any
        # the corrupted pair is the clean pair.
        gen = corr = branches.cond_gen, branches.null_gen
        if any(p is not None for p in used):
            signatures = corrupted_signatures(model, signed, used, book)
            corr = _pair(lambda c: model.branch_logits(c, k, signatures), condition, gamma > 0)
        branches = BranchLogits(*gen, *corr)

    lam = np.array([c.lam if flag else 0.0 for c, flag in zip(configs, contrasted)])
    logits = compose_cfg_vpg(branches, gamma, lam[:, None, None, None])
    for array in (logits, *branches):
        if array is not None:
            array.setflags(write=False)
    step = GuidedStep(k, logits, branches, used, contrasted)
    return step.row(0) if one else step
