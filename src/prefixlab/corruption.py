"""Corrupted-prefix construction.

A plan fixes the selected prefix sites, their same-scale donors and every
variant-specific random draw, so applying it is fully deterministic and the
same plan can be shared across all branches of one guided step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InconsistentPlanError, InvalidFractionError
from .model import EmbeddingParams, PrefixEmbedding, embed_prefix
from .tokenizer import Codebook, ScaleSchedule, TokenMap


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
    even when the float product lands a hair below (e.g. 0.7 * 5).
    """
    return _round_half_up(schedule.prefix_sites(k), fraction)


@lru_cache(maxsize=256)
def _round_half_up(sites: int, fraction: float) -> int:
    # Cached: a rollout plans every sample's step with the same few pairs.
    return math.floor(Fraction(fraction).limit_denominator(10**6) * sites + Fraction(1, 2))


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
    random-codebook variant needs the codebook to know how many tables and
    codes there are to draw from.
    """
    if not 0.0 <= fraction <= 1.0:
        raise InvalidFractionError(f"corruption fraction {fraction} outside [0, 1]")
    rng = np.random.default_rng(seed)
    all_sites = [
        (j, u) for j in range(1, k) for u in range(schedule.sites(j))
    ]
    size = selection_size(schedule, k, fraction)
    chosen_idx = sorted(rng.choice(len(all_sites), size=size, replace=False)) if size else []
    selected = tuple(all_sites[i] for i in chosen_idx)
    donors = tuple(
        (j, int(rng.integers(schedule.sites(j)))) for j, _ in selected
    )
    code_draws: tuple[tuple[int, int], ...] = ()
    uniform_tokens: tuple[tuple[int, ...], ...] = ()
    if variant is CorruptionVariant.RANDOM_CODEBOOK:
        if book is None:
            raise InconsistentPlanError("random-codebook plans need the codebook")
        code_draws = tuple(
            (int(rng.integers(book.num_scales)) + 1, int(rng.integers(book.vocab)))
            for _ in selected
        )
    elif variant is CorruptionVariant.UNIFORM_PREFIX:
        if book is None:
            raise InconsistentPlanError("uniform-prefix plans need the codebook")
        uniform_tokens = tuple(
            tuple(int(x) for x in rng.integers(book.vocab, size=schedule.sites(j)))
            for j in range(1, k)
        )
    return CorruptionPlan(k, variant, fraction, selected, donors, seed,
                          code_draws, uniform_tokens)


def apply_corruption(
    embedding: PrefixEmbedding,
    plan: CorruptionPlan,
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
    """
    if plan.step != embedding.step:
        raise InconsistentPlanError(
            f"plan targets step {plan.step}, embedding is for step {embedding.step}"
        )
    if any(j >= embedding.step for j, _ in plan.selected):
        raise InconsistentPlanError("plan selects sites beyond the prefix")

    if plan.variant is CorruptionVariant.UNIFORM_PREFIX:
        maps = [
            TokenMap(j, np.asarray(ids, dtype=np.int64).reshape(schedule.grid(j)))
            for j, ids in enumerate(plan.uniform_tokens, start=1)
        ]
        return embed_prefix(maps, book, schedule, params)

    grids = [g.copy() for g in embedding.grids]
    proj, pos = params
    for idx, ((j, u), (_, du)) in enumerate(zip(plan.selected, plan.donors)):
        grid = grids[j - 1]
        h, w = schedule.grid(j)
        tgt = (u // w, u % w)
        don = (du // w, du % w)
        if plan.variant is CorruptionVariant.SAME_SCALE_FULL_EMBEDDING:
            grid[tgt] = embedding.grids[j - 1][don]
        elif plan.variant is CorruptionVariant.SAME_SCALE_TOKEN:
            grid[tgt] = embedding.pooled[j - 1][don] @ proj.T + pos[j - 1][tgt]
        elif plan.variant is CorruptionVariant.SAME_SCALE_POSITION:
            grid[tgt] = embedding.pooled[j - 1][tgt] @ proj.T + pos[j - 1][don]
        elif plan.variant is CorruptionVariant.RANDOM_CODEBOOK:
            scale_table, code_id = plan.code_draws[idx]
            vector = book.table(scale_table)[code_id]
            grid[tgt] = vector @ proj.T + pos[j - 1][tgt]
    return PrefixEmbedding(tuple(grids), embedding.pooled)

