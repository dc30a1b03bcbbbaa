"""Corrupted-prefix construction.

A plan fixes the selected prefix sites, their same-scale donors and every
variant-specific random draw, so applying it is fully deterministic and the
same plan can be shared across all branches of one guided step.

A plan has two readings. ``apply_corruption`` reads it on prefix
embeddings, ``corrupt_key`` on a prefix key; ``corrupted_signatures`` is the
one entry that signs a model's stack corrupted under either.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (UNIT_INTERVAL, GuidanceConfigError, InconsistentPlanError,
                     InvalidFractionError, InvalidInputError)
from .model import EmbeddingParams, PrefixEmbedding, PrefixKey, SignedEmbedding, context_signature
from .tokenizer import Codebook, ScaleSchedule


class CorruptionVariant(Enum):
    RANDOM_CODEBOOK = "random_codebook"
    SAME_SCALE_TOKEN = "same_scale_token"
    SAME_SCALE_POSITION = "same_scale_position"
    SAME_SCALE_FULL_EMBEDDING = "same_scale_full_embedding"
    UNIFORM_PREFIX = "uniform_prefix"


@dataclass(frozen=True)
class CorruptionPlan:
    """Site selection and donor map for the step at scale ``step``.

    ``selected`` and ``donors`` are parallel tuples of (scale j, flat site u).
    ``code_draws`` holds (scale-table, code-id) pairs for the random-codebook
    variant; ``uniform_tokens`` holds whole replacement token grids for the
    uniform-prefix variant.
    """

    step: int
    variant: CorruptionVariant
    fraction: float
    selected: tuple[tuple[int, int], ...]
    donors: tuple[tuple[int, int], ...]
    seed: int
    code_draws: tuple[tuple[int, int], ...] = ()
    uniform_tokens: tuple[tuple[int, ...], ...] = ()


def selection_size(schedule: ScaleSchedule, k: int, fraction: float) -> int:
    """Round-half-up of fraction * (number of prefix sites).

    Computed in exact rational arithmetic so half-integer products round up
    even when the float product lands a hair below (e.g. 0.7 * 5). A fraction
    outside [0, 1] raises InvalidFractionError.
    """
    if not UNIT_INTERVAL.holds(fraction):
        raise InvalidFractionError(f"corruption fraction {fraction!r} is not {UNIT_INTERVAL.text}")
    return _round_half_up(schedule.prefix_sites(k), fraction)


@lru_cache(maxsize=256)
def _round_half_up(sites: int, fraction: float) -> int:
    """floor(p/q * sites + 1/2) for p/q the fraction's closest rational of
    denominator at most 10**6, in integers. p/q is what
    ``fractions.Fraction(fraction).limit_denominator(10**6)`` gives (its
    continued-fraction walk, ties to the last convergent), without
    importing ``fractions``, which loads ``decimal``."""
    # Cached: a rollout plans every sample's step with the same few pairs.
    n, d = fraction.as_integer_ratio()
    p, q = n, d
    if d > 10**6:
        p0, q0, p1, q1 = 0, 1, 1, 0
        while q0 + (n // d) * q1 <= 10**6:
            a = n // d
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
            n, d = d, n - a * d
        j = (10**6 - q0) // q1
        p, q = (p1, q1) if 2 * d * (q0 + j * q1) <= q else (p0 + j * p1, q0 + j * q1)
    return (2 * p * sites + q) // (2 * q)


# Variants whose plans draw from the codebook, with the name their error gives.
_NEEDS_BOOK = {
    CorruptionVariant.RANDOM_CODEBOOK: "random-codebook",
    CorruptionVariant.UNIFORM_PREFIX: "uniform-prefix",
}


def plan_corruption(
    schedule: ScaleSchedule,
    k: int,
    fraction: float,
    variant: CorruptionVariant,
    seed: int,
    book: Codebook | None = None,
) -> CorruptionPlan:
    """Sample sites uniformly without replacement, donors with replacement.

    Self-donation is allowed, which keeps 1x1 scales well-defined. The
    random-codebook and uniform-prefix variants need the codebook to know how
    many tables and codes there are to draw from. A plan that selects no site
    has no site, donor or code draw; ``rollouts`` never draws one for a
    site-selecting variant (``GuidanceConfig.draws_plan``), and the
    uniform-prefix variant ignores the selection and draws whole token grids.
    """
    size = selection_size(schedule, k, fraction)
    if book is None and variant in _NEEDS_BOOK:
        raise InconsistentPlanError(f"{_NEEDS_BOOK[variant]} plans need the codebook")
    rng = np.random.default_rng(seed)
    sites = [schedule.sites(j) for j in range(1, k)]
    all_sites = [(j, u) for j, n in enumerate(sites, start=1) for u in range(n)]
    chosen = rng.choice(len(all_sites), size=size, replace=False).tolist() if size else []
    selected = tuple(all_sites[i] for i in sorted(chosen))
    donors = tuple((j, int(rng.integers(sites[j - 1]))) for j, _ in selected)
    code_draws: tuple[tuple[int, int], ...] = ()
    uniform_tokens: tuple[tuple[int, ...], ...] = ()
    if variant is CorruptionVariant.RANDOM_CODEBOOK:
        code_draws = tuple(
            (int(rng.integers(book.num_scales)) + 1, int(rng.integers(book.vocab)))
            for _ in selected
        )
    elif variant is CorruptionVariant.UNIFORM_PREFIX:
        uniform_tokens = tuple(tuple(rng.integers(book.vocab, size=n).tolist()) for n in sites)
    return CorruptionPlan(k, variant, fraction, selected, donors, seed,
                          code_draws, uniform_tokens)


# Variants that act on prefix embeddings only: a prefix key has no reading of them.
EMBEDDING_ONLY = frozenset({CorruptionVariant.SAME_SCALE_POSITION,
                            CorruptionVariant.SAME_SCALE_FULL_EMBEDDING})


def check_corruptible(signed: SignedEmbedding, variants, book: Codebook | None) -> None:
    """Raise unless the signed stack ``signed`` can be corrupted under each
    of ``variants``: a stack with no embedding (a tabular stack) has no
    reading of an ``EMBEDDING_ONLY`` variant, which raises
    GuidanceConfigError naming it, and an embedded (count) stack is
    corrupted with the codebook."""
    named = sorted(v.value for v in EMBEDDING_ONLY.intersection(variants))
    if signed.embedding is None and named:
        raise GuidanceConfigError(f"the {named[0]} variant corrupts embeddings; the stack has none")
    if signed.embedding is not None and book is None:
        raise InvalidInputError("count-model guidance needs the codebook")


def _check_plans(plans: Sequence[CorruptionPlan], step: int, rows: int) -> CorruptionVariant:
    """The variant of ``plans``, one plan per row of a stack of ``rows``
    prefixes of ``step``, all of one variant, each selecting prefix sites
    only; else InconsistentPlanError."""
    if len(plans) != rows:
        raise InconsistentPlanError(f"{len(plans)} plans for a stack of {rows} embeddings")
    for p in plans:
        if p.step != step:
            raise InconsistentPlanError(f"plan targets step {p.step}, prefix is for step {step}")
        if any(j >= step for j, _ in p.selected):
            raise InconsistentPlanError("plan selects sites beyond the prefix")
    variant = plans[0].variant
    if any(p.variant is not variant for p in plans):
        raise InconsistentPlanError("the plans of a stack must share one variant")
    return variant


def corrupt_key(key: PrefixKey, plan: CorruptionPlan) -> PrefixKey:
    """The token reading of ``plan`` on the prefix key ``key`` of its step,
    read from the uncorrupted key: under same_scale_token a target site
    takes its donor's id, under random_codebook its drawn code id, and under
    uniform_prefix the key is the plan's token grids. An ``EMBEDDING_ONLY``
    plan has no token reading and raises InconsistentPlanError."""
    _check_plans([plan], len(key) + 1, 1)
    if plan.variant is CorruptionVariant.UNIFORM_PREFIX:
        return plan.uniform_tokens
    if plan.variant in EMBEDDING_ONLY:
        raise InconsistentPlanError(f"a {plan.variant.value} plan has no token reading")
    token = plan.variant is CorruptionVariant.SAME_SCALE_TOKEN
    parts = [list(ids) for ids in key]
    for n, ((j, u), (_, du)) in enumerate(zip(plan.selected, plan.donors)):
        parts[j - 1][u] = key[j - 1][du] if token else plan.code_draws[n][1]
    return tuple(map(tuple, parts))


def corrupted_signatures(model, signed: SignedEmbedding, plans: Sequence[CorruptionPlan | None],
                         book: Codebook | None) -> list:
    """The signatures of ``model``'s signed stack ``signed``, each row with
    a plan of ``plans`` (one per row, None for a row kept clean) corrupted
    under it and signed in full.

    The planned rows of each variant are corrupted together. On a stack
    with no embedding (a tabular stack, whose signatures are its prefix
    keys) the rows' keys are read by ``corrupt_key`` and signed by the
    model's ``embed``, and so are a count stack's under uniform_prefix,
    whose reading takes only a signature's length from the row. A count
    stack's rows under any other variant are read by ``apply_corruption``
    and binned by the model's thresholds.
    """
    signatures = list(signed.signature)
    for variant in dict.fromkeys(p.variant for p in plans if p is not None):
        rows = [i for i, p in enumerate(plans) if p is not None and p.variant is variant]
        taken, planned = signed.take(rows), [plans[i] for i in rows]
        if taken.embedding is None or variant is CorruptionVariant.UNIFORM_PREFIX:
            corrupted = model.embed(
                [corrupt_key(key, p) for key, p in zip(taken.signature, planned)], book).signature
        else:
            corrupted = context_signature(apply_corruption(
                taken.embedding, planned, book, model.schedule, model.params), model.thresholds)
        for i, signature in zip(rows, corrupted):
            signatures[i] = signature
    return signatures


def apply_corruption(
    embedding: PrefixEmbedding,
    plans: Sequence[CorruptionPlan],
    book: Codebook,
    schedule: ScaleSchedule,
    params: EmbeddingParams,
) -> PrefixEmbedding:
    """Replace embeddings at selected sites per the plans' variant.

    ``embedding`` stacks embeddings of one step on a leading axis, and
    ``plans`` holds one plan per row, all of one variant: row i is corrupted
    under plan i, and every scale is rewritten for the whole stack at once.
    Input untouched; sites outside the selection are copied verbatim. A
    uniform-prefix plan replaces the prefix's tokens, not its embedding, so
    it is read on prefix keys (``corrupt_key``) and raises
    InconsistentPlanError here. ``params`` are the ``embedding_params`` the
    embedding was built with, as a fitted count model carries them. A
    content vector is projected as a one-row matrix, as one vector's
    ``x @ proj.T`` is, so a row equals its corruption alone bit for bit.
    """
    step = embedding.step
    variant = _check_plans(plans, step, len(embedding.grids[0]) if embedding.grids else 0)
    if variant is CorruptionVariant.UNIFORM_PREFIX:
        raise InconsistentPlanError("a uniform_prefix plan is read on prefix keys, not embeddings")
    grids = [g.copy() for g in embedding.grids]
    proj, pos = params
    for j in range(1, step):
        # Row, target site, donor site and selection index of every site
        # of scale j that a plan of the stack selects.
        picks = [(i, u, du, n) for i, p in enumerate(plans)
                 for n, ((sj, u), (_, du)) in enumerate(zip(p.selected, p.donors))
                 if sj == j]
        if not picks:
            continue
        i, u, du, n = np.array(picks).T
        w = schedule.grid(j)[1]
        tgt, don = (i, u // w, u % w), (i, du // w, du % w)
        if variant is CorruptionVariant.SAME_SCALE_FULL_EMBEDDING:
            grids[j - 1][tgt] = embedding.grids[j - 1][don]
            continue
        if variant is CorruptionVariant.SAME_SCALE_TOKEN:
            content, at = embedding.pooled[j - 1][don], tgt
        elif variant is CorruptionVariant.SAME_SCALE_POSITION:
            content, at = embedding.pooled[j - 1][tgt], don
        else:  # RANDOM_CODEBOOK
            draws = (plans[r].code_draws[m] for r, m in zip(i, n))
            content = np.array([book.table(scale)[code] for scale, code in draws])
            at = tgt
        grids[j - 1][tgt] = (content[:, None] @ proj.T)[:, 0] + pos[j - 1][at[1:]]
    return PrefixEmbedding(tuple(grids), embedding.pooled)
