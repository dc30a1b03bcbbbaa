"""Turn guided logits into token maps and full rollouts.

Truncation order is fixed and documented: temperature first, then top-k,
then top-p. Top-p keeps the smallest descending-probability prefix whose
cumulative mass reaches the threshold (boundary token included), and
``top_p = 1`` keeps every top-k token however small its mass; ties are
broken toward the lower token id throughout.

Every site of a scale, across every distinct guided step of a batch, is
truncated in one vectorized pass, and every sample's sites are sampled in
one more. Each sample has its own generator; a step draws one uniform per
site from it, in row-major site order, and inverts it against the site's
cumulative law: the same random stream, token ids and generator state as one
``rng.choice(V, p=law)`` call per site.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import GuidanceConfig, SamplerConfig
from .corruption import CorruptionPlan, plan_corruption
from .errors import DegenerateDistributionError, InvalidInputError
from .guidance import GuidedStep, guided_step
from .model import Condition, TokenMap, check_codebook, scale_maps
from .oracle import Distribution, chain_law, live_maps, softmax
from .tokenizer import Codebook, accumulate_latent


def truncated_law(logits: np.ndarray, config: SamplerConfig) -> np.ndarray:
    """Per-site truncated distributions for a (..., V) logit grid, one pass.

    A site whose logits, divided by the temperature, hold NaN or +inf, or
    are all -inf, has no law: it raises DegenerateDistributionError.
    """
    logits = np.asarray(logits, dtype=float)
    vocab = logits.shape[-1]
    scaled = logits.reshape(-1, vocab) / config.temperature
    if not np.all(scaled < np.inf):
        raise DegenerateDistributionError("logits hold NaN or +inf at this temperature")
    if not np.all(np.any(scaled > -np.inf, axis=-1)):
        raise DegenerateDistributionError("all logits are -inf at this temperature")
    # Descending probability with ties broken toward the lower token id.
    order = np.argsort(-scaled, axis=-1, kind="stable")
    keep = vocab if config.top_k is None else min(config.top_k, vocab)
    kept = order[:, :keep]
    kept_probs = softmax(np.take_along_axis(scaled, kept, axis=-1))
    cum = np.cumsum(kept_probs, axis=-1)
    threshold = np.inf if config.top_p >= 1 else config.top_p - 1e-15
    cutoff = np.minimum((cum < threshold).sum(axis=-1) + 1, keep)
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
    logits: np.ndarray,
    config: SamplerConfig,
    rngs: Sequence[np.random.Generator],
    rows: Sequence[int] | None = None,
) -> np.ndarray:
    """One token id per site for each sample, shape (len(rngs), ...).

    Sample i reads the logit grid ``logits[rows[i]]`` (``logits[i]`` when
    ``rows`` is None), so samples that share a guided step share its row and
    each row's law is truncated once; the law is computed row by row, so
    sharing changes no bit of it. Sample i draws one uniform per site from
    ``rngs[i]``, in row-major order, and each uniform is inverted against its
    site's normalized cumulative law (``searchsorted(side="right")``), as
    ``rng.choice(V, p=law)`` does. So the ids and every generator's state
    equal per-site ``rng.choice`` calls, sample by sample.
    """
    laws = truncated_law(logits, config)
    rows = np.arange(len(laws)) if rows is None else np.asarray(rows, dtype=np.intp)
    if laws.ndim < 2 or rows.shape != (len(rngs),):
        raise InvalidInputError(
            f"logits of shape {laws.shape} need one generator per sample and one "
            f"logit row per sample, got {len(rngs)} generators"
        )
    flat = laws.reshape(len(laws), -1, laws.shape[-1])
    if not (np.all(flat >= 0) and np.all(np.abs(flat.sum(axis=-1) - 1.0) <= _SUM_TOL)):
        raise DegenerateDistributionError("a site law is not a probability distribution")
    cdf = np.cumsum(flat, axis=-1)
    cdf /= cdf[..., -1:]
    sites = flat.shape[1]
    uniforms = np.empty((len(rngs), sites))
    for rng, out in zip(rngs, uniforms):
        rng.random(out=out)
    ids = (cdf[rows] <= uniforms[..., None]).sum(axis=-1)
    return ids.reshape((len(rngs),) + laws.shape[1:-1])


@dataclass(frozen=True)
class RolloutResult:
    """One generation: ``trace[k-1]`` is the guided step that ``maps[k-1]``
    was sampled from, and ``latent`` is the maps decoded to the finest grid.

    ``ids[k-1]`` holds the ids sampled at scale k, and ``steps[k-1]`` that
    scale's stacked guided step with the sample's row in it. ``maps`` and
    ``trace`` are built from them when first read, so a caller that reads
    only ``latent`` builds neither.
    """

    ids: tuple[np.ndarray, ...]
    latent: np.ndarray
    steps: tuple[tuple[GuidedStep, int], ...]
    condition: Condition
    seed: int

    @cached_property
    def maps(self) -> tuple[TokenMap, ...]:
        return tuple(TokenMap(k, ids) for k, ids in enumerate(self.ids, start=1))

    @cached_property
    def trace(self) -> tuple[GuidedStep, ...]:
        return tuple(step.row(row) for step, row in self.steps)


def rollouts(
    model,
    condition: Condition,
    lanes: Sequence[tuple[GuidanceConfig, SamplerConfig]],
    book: Codebook,
    count: int,
) -> list[list[RolloutResult]]:
    """``count`` guided generations over ``model.schedule`` per lane, all
    advanced together; one list of ``count`` results per lane.

    A lane is a ``(GuidanceConfig, SamplerConfig)`` pair. The lanes share
    the sampler's temperature, top-k and top-p, checked here, and the
    guidance's gamma and reference, which ``guided_step`` checks of every
    stack; each has its own seed and its own strength, fraction, variant and
    scale mask. Sample i of a lane is seeded ``sconfig.seed +
    i`` and has its own generator, which draws the step's plan seed and then
    the step's uniforms, so each sample is the same as if it were generated
    alone. Each scale takes one stacked ``guided_step`` over every lane,
    with each row's lane config. Where a lane's ``draws_plan`` holds, each of
    its samples' corruption plans is drawn here from its plan seed and the
    stack has one row per sample; else, as where the variant can select no
    site, one row per group of the lane's samples whose step reads the same
    input (a count model's clean signature, a tabular model's prefix key),
    whose members share the row. So each lane has the rows it would have
    alone. Each row's law is truncated once and all samples are sampled in
    one pass. The prefix each step reads is carried forward one scale at a
    time: the model's signed stack, built by its ``embed`` and grown by its
    ``extend`` from the sampled ids, whose rows ``guided_step`` takes as its
    prefix; it is not carried past the last scale. ``book`` only decodes:
    each sample's latent, its image, is accumulated from it scale by scale.
    Plans draw from the model's ``vocab``. A codebook that does not fit the
    model, or that is not a count model's own (``check_codebook``), raises
    InvalidInputError before any sample is drawn.
    """
    if count < 1:
        raise InvalidInputError(f"rollout count must be >= 1, got {count}")
    lanes = list(lanes)
    if not lanes:
        raise InvalidInputError("rollouts need at least one lane")
    check_codebook(model, book)
    sconfig, schedule = lanes[0][1], model.schedule

    def shared(s):
        return (s.temperature, s.top_k, s.top_p)

    if any(shared(s) != shared(sconfig) for _, s in lanes):
        raise InvalidInputError("the lanes of a rollout share temperature, top_k and top_p")
    # Sample i belongs to lane i // count.
    total = len(lanes) * count
    seeds = [s.seed + i for _, s in lanes for i in range(count)]
    configs = [g for g, _ in lanes for _ in range(count)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    scales: list[tuple[np.ndarray, list[tuple[GuidedStep, int]]]] = []
    latent = np.zeros((total,) + schedule.final_dims + (book.latent_dim,))
    signed = model.embed([()] * total)
    for k in range(1, schedule.num_scales + 1):
        # Drawn whether or not the step uses it, so each stream stays the same.
        plan_seeds = [int(rng.integers(2**32)) for rng in rngs]
        draws = [g.draws_plan(k, schedule) for g, _ in lanes]
        groups: dict = {}
        for i in range(total):
            lane = i // count
            groups.setdefault(i if draws[lane] else (lane, signed.signature[i]), []).append(i)
        firsts = [members[0] for members in groups.values()]
        step = guided_step(
            model, condition, signed.take(firsts), [configs[i] for i in firsts],
            plan=[plan_corruption(schedule, k, configs[i].fraction, configs[i].variant,
                                  plan_seeds[i], model.vocab) if draws[i // count] else None
                  for i in firsts] if any(draws) else None,
        )
        rows = np.empty(total, dtype=np.intp)
        for row, members in enumerate(groups.values()):
            rows[members] = row
        ids = truncate_and_sample(step.logits, sconfig, rngs, rows)
        latent = accumulate_latent(latent, k, ids, book)
        if k < schedule.num_scales:
            signed = model.extend(signed, ids)
        scales.append((ids, [(step, row) for row in rows.tolist()]))
    # Per sample: its ids at every scale, and its (step, row) at every scale.
    samples = zip(seeds, latent, zip(*(ids for ids, _ in scales)),
                  zip(*(steps for _, steps in scales)))
    results = [RolloutResult(ids, sample_latent, steps, condition, seed)
               for seed, sample_latent, ids, steps in samples]
    return [results[start:start + count] for start in range(0, total, count)]


def trace_to_csv(result: RolloutResult, path, formatted: dict | None = None) -> None:
    """One row per (step, site): sampled id plus the guided logits.

    The file is formatted in one pass and written at once, in ``csv.writer``'s
    layout: CRLF line ends, ``str`` of ints and ``repr`` of floats (which
    never need quoting). ``formatted`` keeps each step's formatted logit rows:
    pass one dict for the traces of one ``rollouts`` batch, and a step its
    samples share is formatted once.
    """
    formatted = {} if formatted is None else formatted
    vocab = result.trace[0].logits.shape[-1]
    lines = [",".join(["step", "site", "sampled_id"] + [f"logit_{v}" for v in range(vocab)])]
    for step, tmap in zip(result.trace, result.maps):
        rows = formatted.get(step)
        if rows is None:
            rows = formatted[step] = [
                ",".join(map(repr, row)) for row in step.logits.reshape(-1, vocab).tolist()
            ]
        lines.extend(
            f"{step.k},{u},{sampled},{row}"
            for u, (sampled, row) in enumerate(zip(tmap.ids.ravel().tolist(), rows))
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
    *,
    fixed_plans: dict[int, CorruptionPlan] | None = None,
) -> Distribution:
    """Exact law over the model's full token-map sequences under the sampler.

    The guided law must be deterministic at each scale: the exact-marginal
    reference, lam = 0, a fixed corruption plan, or a scale whose variant can
    select no site (``GuidanceConfig.draws_plan`` is false, so the corrupted
    pair is the clean pair); ``guided_step`` rejects any other guided scale
    as ill-defined. A scale's live prefixes, the model's signed stack that
    ``oracle.chain_law`` carries, take one stacked ``guided_step`` and one
    ``truncated_law``. The last scale's laws are read once more, without
    extending the stack, and are not capped; the outcome keys are built
    once, from the walk's ids.
    """

    def step_laws(signed):
        plan, size = (fixed_plans or {}).get(signed.step), len(signed.signature)
        logits = guided_step(model, condition, signed, gconfig,
                             plan=None if plan is None else [plan] * size).logits
        return truncated_law(logits, sconfig).reshape(size, -1, logits.shape[-1])

    signed, ids, probs = chain_law(model, step_laws, model.schedule.num_scales - 1)
    rows, cols, probs = live_maps(probs, step_laws(signed))
    prefixes = list(zip(*[map(tuple, a.reshape(len(a), -1).tolist()) for a in ids])) or [()]
    maps = scale_maps(model.vocab, model.schedule.sites(model.schedule.num_scales))
    keys = [prefixes[i] + (maps[j],) for i, j in zip(rows.tolist(), cols.tolist())]
    return Distribution(tuple(keys), probs / probs.sum())
