"""Turn guided logits into token maps and full rollouts.

Truncation order is fixed and documented: temperature first, then top-k,
then top-p. Top-p keeps the smallest descending-probability prefix whose
cumulative mass reaches the threshold (boundary token included); ties are
broken toward the lower token id throughout.

Every site of a scale, across every sample of a batch, is truncated and
sampled in one vectorized pass. Each sample has its own generator; a step
draws one uniform per site from it, in row-major site order, and inverts it
against the site's cumulative law: the same random stream, token ids and
generator state as one ``rng.choice(V, p=law)`` call per site.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corruption import CorruptionPlan
from .errors import DegenerateDistributionError, InvalidInputError
from .guidance import GuidanceConfig, GuidedStep, guided_step
from .model import Condition, CountModel, TokenMap, prefix_maps
from .oracle import Distribution, chain_law, softmax
from .tokenizer import Codebook, accumulate_latent


@dataclass(frozen=True)
class SamplerConfig:
    temperature: float = 1.0
    top_k: int | None = None
    top_p: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise InvalidInputError(
                f"temperature must be finite and > 0, got {self.temperature!r}"
            )
        if self.top_k is not None and self.top_k < 1:
            raise InvalidInputError("top_k must be >= 1")
        if not 0 < self.top_p <= 1:
            raise InvalidInputError("top_p must lie in (0, 1]")


def truncated_law(logits: np.ndarray, config: SamplerConfig) -> np.ndarray:
    """Per-site truncated distributions for a (..., V) logit grid, one pass."""
    logits = np.asarray(logits, dtype=float)
    vocab = logits.shape[-1]
    if not np.all(np.any(logits > -np.inf, axis=-1)):
        raise DegenerateDistributionError("all logits are -inf")
    scaled = logits.reshape(-1, vocab) / config.temperature
    # Descending probability with ties broken toward the lower token id.
    order = np.argsort(-scaled, axis=-1, kind="stable")
    keep = vocab if config.top_k is None else min(config.top_k, vocab)
    kept = order[:, :keep]
    kept_probs = softmax(np.take_along_axis(scaled, kept, axis=-1))
    cum = np.cumsum(kept_probs, axis=-1)
    cutoff = np.minimum((cum < config.top_p - 1e-15).sum(axis=-1) + 1, keep)
    # Each row's kept mass is summed over exactly its kept prefix, so the
    # pairwise summation order matches a one-site sum of that prefix.
    mass = np.empty(cum.shape[0])
    for c in range(1, keep + 1):
        rows = cutoff == c
        if rows.any():
            mass[rows] = kept_probs[rows, :c].sum(axis=-1)
    in_support = np.arange(keep) < cutoff[:, None]
    probs = np.zeros_like(scaled)
    np.put_along_axis(
        probs, kept, np.where(in_support, kept_probs / mass[:, None], 0.0), axis=-1
    )
    return probs.reshape(logits.shape)


def truncated_site_law(logits: np.ndarray, config: SamplerConfig) -> np.ndarray:
    """One site's truncated distribution, shape (V,): a one-site truncated_law."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 1:
        raise InvalidInputError("a site's logits must have shape (V,)")
    return truncated_law(logits, config)


# Generator.choice's tolerance on the sum of p.
_SUM_TOL = float(np.sqrt(np.finfo(float).eps))


def truncate_and_sample(
    logits: np.ndarray, config: SamplerConfig, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """One token id per site for each sample on the leading axis of ``logits``.

    ``logits`` has shape (len(rngs), ..., V). Sample i draws one uniform per
    site from ``rngs[i]``, in row-major order, and each uniform is inverted
    against its site's normalized cumulative law (``searchsorted(side="right")``),
    as ``rng.choice(V, p=law)`` does. So the ids and every generator's state
    equal per-site ``rng.choice`` calls, sample by sample.
    """
    laws = truncated_law(logits, config)
    if laws.ndim < 2 or laws.shape[0] != len(rngs):
        raise InvalidInputError(
            f"logits of shape {laws.shape} need one generator per leading-axis "
            f"sample, got {len(rngs)}"
        )
    flat = laws.reshape(-1, laws.shape[-1])
    if not (np.all(flat >= 0) and np.all(np.abs(flat.sum(axis=-1) - 1.0) <= _SUM_TOL)):
        raise DegenerateDistributionError("a site law is not a probability distribution")
    cdf = np.cumsum(flat, axis=-1)
    cdf /= cdf[:, -1:]
    sites = flat.shape[0] // len(rngs)
    uniforms = np.concatenate([rng.random(sites) for rng in rngs])
    ids = (cdf <= uniforms[:, None]).sum(axis=-1)
    return ids.reshape(laws.shape[:-1])


@dataclass(frozen=True)
class RolloutResult:
    """One generation: ``trace[k-1]`` is the guided step that ``maps[k-1]``
    was sampled from, and ``latent`` is the maps decoded to the finest grid."""

    maps: tuple[TokenMap, ...]
    latent: np.ndarray
    trace: tuple[GuidedStep, ...]
    condition: Condition
    seed: int


def rollouts(
    model,
    condition: Condition,
    gconfig: GuidanceConfig,
    sconfig: SamplerConfig,
    book: Codebook,
    count: int,
) -> list[RolloutResult]:
    """``count`` guided generations over ``model.schedule``, advanced together.

    Sample i is seeded ``sconfig.seed + i`` and has its own generator, which
    draws the step's plan seed and then the step's uniforms, so each sample is
    the same as if it were generated alone. Per scale, ``guided_step`` runs
    once per sample and all samples' logits are truncated and sampled in one
    pass. The samples' latents are carried forward one scale at a time, and
    for a count model so are their signed prefix embeddings, which each
    sample's ``guided_step`` reads.
    """
    if count < 1:
        raise InvalidInputError(f"rollout count must be >= 1, got {count}")
    schedule = model.schedule
    seeds = [sconfig.seed + i for i in range(count)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    maps: list[list[TokenMap]] = [[] for _ in seeds]
    traces: list[list[GuidedStep]] = [[] for _ in seeds]
    latent = np.zeros((count,) + schedule.final_dims + (book.latent_dim,))
    carries_embedding = isinstance(model, CountModel)
    signed = [model.embed([], book) if carries_embedding else None] * count
    for k in range(1, schedule.num_scales + 1):
        steps = [
            guided_step(
                model, condition, maps[i], gconfig, book=book,
                plan_seed=int(rng.integers(2**32)), signed=signed[i],
            )
            for i, rng in enumerate(rngs)
        ]
        ids = truncate_and_sample(np.stack([s.logits for s in steps]), sconfig, rngs)
        latent = accumulate_latent(latent, k, ids, book)
        if carries_embedding and k < schedule.num_scales:
            signed = model.extend(signed, latent)
        for i, step in enumerate(steps):
            maps[i].append(TokenMap(k, ids[i]))
            traces[i].append(step)
    return [
        RolloutResult(tuple(sample_maps), latent[i], tuple(trace), condition, seed)
        for i, (seed, sample_maps, trace) in enumerate(zip(seeds, maps, traces))
    ]


def replay_trace(
    model,
    result: RolloutResult,
    gconfig: GuidanceConfig,
    book: Codebook,
) -> list[np.ndarray]:
    """Recompute every step's guided logits from the recorded prefixes/plans.

    Returns the recomputed logits per step; bit-identical to the recorded
    ones for a faithful trace.
    """
    logits = []
    for idx, recorded in enumerate(result.trace):
        step = guided_step(
            model,
            result.condition,
            list(result.maps[:idx]),
            gconfig,
            book=book,
            plan=recorded.plan,
        )
        logits.append(step.logits)
    return logits


def trace_to_csv(result: RolloutResult, path) -> None:
    """One row per (step, site): sampled id plus the guided logits.

    The file is formatted in one pass and written at once, in ``csv.writer``'s
    layout: CRLF line ends, ``str`` of ints and ``repr`` of floats (which
    never need quoting).
    """
    vocab = result.trace[0].logits.shape[-1]
    lines = [",".join(["step", "site", "sampled_id"] + [f"logit_{v}" for v in range(vocab)])]
    for step, tmap in zip(result.trace, result.maps):
        ids = tmap.ids.ravel().tolist()
        logits = step.logits.reshape(-1, vocab).tolist()
        lines.extend(
            f"{step.k},{u},{sampled}," + ",".join(map(repr, row))
            for u, (sampled, row) in enumerate(zip(ids, logits))
        )
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def trace_from_csv(path) -> dict[int, dict[int, tuple[int, np.ndarray]]]:
    """Read a trace CSV back as {step: {site: (sampled_id, logits)}}."""
    out: dict[int, dict[int, tuple[int, np.ndarray]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        vocab = len(header) - 3
        for row in reader:
            k, u, sampled = int(row[0]), int(row[1]), int(row[2])
            logits = np.asarray([float(x) for x in row[3 : 3 + vocab]])
            out.setdefault(k, {})[u] = (sampled, logits)
    return out


def rollout_distribution(
    model,
    condition: Condition,
    gconfig: GuidanceConfig,
    sconfig: SamplerConfig,
    book: Codebook,
    *,
    fixed_plans: dict[int, CorruptionPlan] | None = None,
) -> Distribution:
    """Exact law over the model's full token-map sequences under the sampler.

    The guided law must be deterministic: either the exact-marginal
    reference, lam = 0, or a fixed corruption plan per guided scale;
    ``guided_step`` rejects a guided scale without one as ill-defined.
    """

    def step_law(seq):
        step = guided_step(
            model, condition, prefix_maps(seq, model.schedule), gconfig,
            book=book, plan=(fixed_plans or {}).get(len(seq) + 1),
        )
        return truncated_law(step.logits, sconfig).reshape(
            -1, step.logits.shape[-1]
        )

    sequences = chain_law(step_law, model.schedule.num_scales)
    outcomes = tuple(seq for seq, _ in sequences)
    probs = np.asarray([p for _, p in sequences])
    return Distribution(outcomes, probs / probs.sum())
