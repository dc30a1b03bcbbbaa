"""Corrupted-prefix construction.

A plan fixes the selected prefix sites, their same-scale donors and every
variant-specific random draw, so applying it is fully deterministic and the
same plan can be shared across all branches of one guided step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import UNIT_INTERVAL, InconsistentPlanError, InvalidFractionError
from .model import EmbeddingParams, PrefixEmbedding, embed_prefix
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
    # Cached: a rollout plans every sample's step with the same few pairs.
    # Not imported at load: ``fractions`` loads ``decimal``, and only plans need it.
    from fractions import Fraction

    return math.floor(Fraction(fraction).limit_denominator(10**6) * sites + Fraction(1, 2))


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
    all_sites = [
        (j, u) for j in range(1, k) for u in range(schedule.sites(j))
    ]
    chosen_idx = sorted(rng.choice(len(all_sites), size=size, replace=False)) if size else []
    selected = tuple(all_sites[i] for i in chosen_idx)
    donors = tuple(
        (j, int(rng.integers(schedule.sites(j)))) for j, _ in selected
    )
    code_draws: tuple[tuple[int, int], ...] = ()
    uniform_tokens: tuple[tuple[int, ...], ...] = ()
    if variant is CorruptionVariant.RANDOM_CODEBOOK:
        code_draws = tuple(
            (int(rng.integers(book.num_scales)) + 1, int(rng.integers(book.vocab)))
            for _ in selected
        )
    elif variant is CorruptionVariant.UNIFORM_PREFIX:
        uniform_tokens = tuple(
            tuple(int(x) for x in rng.integers(book.vocab, size=schedule.sites(j)))
            for j in range(1, k)
        )
    return CorruptionPlan(k, variant, fraction, selected, donors, seed,
                          code_draws, uniform_tokens)


def apply_corruption(
    embedding: PrefixEmbedding,
    plan: CorruptionPlan | Sequence[CorruptionPlan],
    book: Codebook,
    schedule: ScaleSchedule,
    params: EmbeddingParams,
) -> PrefixEmbedding:
    """Replace embeddings at selected sites per the plan's variant.

    Input untouched; sites outside the selection are copied verbatim. The
    uniform-prefix variant ignores the site selection and rebuilds the whole
    embedding from the plan's i.i.d. uniform token grids. ``params`` are the
    ``embedding_params`` the embedding was built with, as a fitted count
    model carries them.

    A stacked embedding (``PrefixEmbedding.stack``) takes a sequence of one
    plan per row, all of one variant, and row i is corrupted under plan i;
    every scale is rewritten for the whole stack at once. A content vector
    is projected as a one-row matrix, as one vector's ``x @ proj.T`` is, so a
    row of the stack equals its one-embedding corruption bit for bit.
    """
    stacked, step = embedding.stacked, embedding.step
    plans = tuple(plan) if stacked else (plan,)
    stack = embedding if stacked else PrefixEmbedding.stack([embedding])
    if stacked and len(plans) != len(embedding.grids[0]):
        raise InconsistentPlanError(
            f"{len(plans)} plans for a stack of {len(embedding.grids[0])} embeddings"
        )
    for p in plans:
        if p.step != step:
            raise InconsistentPlanError(
                f"plan targets step {p.step}, embedding is for step {step}"
            )
        if any(j >= step for j, _ in p.selected):
            raise InconsistentPlanError("plan selects sites beyond the prefix")
    variant = plans[0].variant
    if any(p.variant is not variant for p in plans):
        raise InconsistentPlanError("the plans of a stack must share one variant")

    if variant is CorruptionVariant.UNIFORM_PREFIX:
        out = embed_prefix([
            np.array([p.uniform_tokens[j - 1] for p in plans]).reshape((-1,) + schedule.grid(j))
            for j in range(1, step)
        ], book, schedule, params)
    else:
        grids = [g.copy() for g in stack.grids]
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
                grids[j - 1][tgt] = stack.grids[j - 1][don]
                continue
            if variant is CorruptionVariant.SAME_SCALE_TOKEN:
                content, at = stack.pooled[j - 1][don], tgt
            elif variant is CorruptionVariant.SAME_SCALE_POSITION:
                content, at = stack.pooled[j - 1][tgt], don
            else:  # RANDOM_CODEBOOK
                draws = (plans[r].code_draws[m] for r, m in zip(i, n))
                content = np.array([book.table(scale)[code] for scale, code in draws])
                at = tgt
            grids[j - 1][tgt] = (content[:, None] @ proj.T)[:, 0] + pos[j - 1][at[1:]]
        out = PrefixEmbedding(tuple(grids), stack.pooled)
    return out if stacked else out.row(0)
