"""Brute-force ground truth on enumerable models.

Everything here is exact: one engine, ``chain_law``, walks the prefix space
one scale at a time, chaining the per-site step laws of every live prefix
of a scale at once (CPT rows, or a count model's own predictions). A level's
live prefixes are the model's own signed stack, extended one scale at a time
as ``sampler.rollouts`` extends it, so the map rule checks no prefix the walk
built. The enumerators and marginals read its
last level, and the augmented distributions are the normalized ratio forms
the guidance algebra is supposed to reproduce.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .config import VerifySpec
from .errors import InvalidInputError, TooLargeError
from .model import (
    Condition,
    NULL_CONDITION,
    PREFIX_STATE_CAP,
    PrefixKey,
    TabularModel,
    check_condition,
    enumerate_prefix_keys,
    scale_maps,
)
from .tokenizer import accumulate_latent


@dataclass(frozen=True)
class Distribution:
    """Finite distribution over hashable outcomes."""

    outcomes: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if len(self.outcomes) != p.shape[0]:
            raise InvalidInputError("outcome/probability length mismatch")
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12):
            raise InvalidInputError("probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "probs", p)

    def as_dict(self) -> dict:
        return dict(zip(self.outcomes, self.probs))


def chain_law(model, step_laws, num_scales: int):
    """Every prefix of ``num_scales`` token maps with positive probability,
    walked one scale at a time, as (signed, ids, probs) in lexicographic
    order: the model's signed stack of them, each scale's (P, h_j, w_j) ids
    and their probabilities.

    ``step_laws(signed)`` returns the per-site laws, (P, h*w, V), of the map
    after each of a level's P live prefixes; sites are independent given
    the prefix. A level takes the stack's live rows and extends them by
    their new ids with ``model.extend``, after accumulating their latents
    from the model's own codebook (``CountModel.book``) where the stack has
    an embedding, as ``sampler.rollouts`` does; a tabular walk reads no
    codebook. A level of more than
    ``PREFIX_STATE_CAP`` prefixes (P times the scale's maps) raises
    TooLargeError once its laws are read, before it is formed. Laws of a
    stack of G walks over one prefix space, (G, P, h*w, V), are walked
    together: ``probs`` is then (G, P), and a prefix is kept where any of
    the G gives it mass (the others carry it at 0)."""
    signed, ids, probs = model.embed([()]), [], np.ones(1)
    latent = None if signed.embedding is None else np.zeros(
        (1,) + model.schedule.final_dims + (model.book.latent_dim,))
    for k in range(1, num_scales + 1):
        laws = step_laws(signed)
        if (states := laws.shape[-3] * model.vocab ** laws.shape[-2]) > PREFIX_STATE_CAP:
            raise TooLargeError(states, PREFIX_STATE_CAP)
        rows, cols, probs = live_maps(probs, laws)
        new = np.stack(np.unravel_index(cols, (model.vocab,) * laws.shape[-2]), axis=-1)
        new = new.reshape((len(cols),) + model.schedule.grid(k))
        ids = [a[rows] for a in ids] + [new]
        if latent is not None:
            latent = accumulate_latent(latent[rows], k, new, model.book)
        signed = model.extend(signed.take(rows), new, latent)
    return signed, ids, probs


def live_maps(probs: np.ndarray, laws: np.ndarray):
    """One level of a walk from its P prefixes' probabilities, (..., P),
    and per-site laws, (..., P, h*w, V): the (row, column) of each
    (prefix, map in ``scale_maps`` order) that any walk gives mass, in
    lexicographic order, and its probabilities, (..., N)."""
    flat = laws.reshape((-1,) + laws.shape[-2:])
    joint = probs[..., None] * _joint_law(flat).reshape(laws.shape[:-2] + (-1,))
    live = (joint > 0.0).reshape((-1,) + joint.shape[-2:]).any(axis=0)
    rows, cols = np.nonzero(live)
    return rows, cols, joint[..., rows, cols]


def _joint_law(laws: np.ndarray) -> np.ndarray:
    """Probability of each map of a step, (P, V**S) in ``scale_maps`` order,
    from P prefixes' per-site (P, S, V) laws: an outer product site by site,
    left to right, which multiplies in ``np.prod``'s order, bit for bit."""
    joint = np.ones((len(laws), 1))
    for site in np.moveaxis(laws, 1, 0):
        joint = (joint[:, :, None] * site[:, None]).reshape(len(laws), -1)
    return joint


def _site_laws(model, condition: Condition):
    """Per-site step laws of a tabular or count model's signed stack, as
    ``chain_law`` takes them: table rows, or the exp of the logits."""
    def laws(signed):
        args = condition, signed.step, signed.signature
        rows = model.rows(*args) if isinstance(model, TabularModel) else np.exp(model.branch_logits(*args))
        return rows.reshape(len(signed.signature), -1, model.vocab)
    return laws


def step_map_distribution(model: TabularModel, condition: Condition, key: PrefixKey) -> Distribution:
    """Joint distribution over the whole token maps of the step after ``key``."""
    laws = model.rows(condition, len(key) + 1, [key]).reshape(1, -1, model.vocab)
    return Distribution(scale_maps(model.vocab, laws.shape[1]), _joint_law(laws)[0])


def enumerate_prefixes(model: TabularModel, condition: Condition, k: int) -> list[tuple[PrefixKey, float]]:
    """All (prefix, p(prefix | c)) pairs for the step at scale k."""
    signed, _, probs = chain_law(model, _site_laws(model, condition), k - 1)
    return list(zip(signed.signature, probs.tolist()))


def _step_joint(model: TabularModel, condition: Condition, k: int):
    """Scale k's prefix keys, its maps, and p(prefix, r_k | c) over both, (P, V**S)."""
    laws = _site_laws(model, condition)
    signed, _, probs = chain_law(model, laws, k - 1)
    maps = scale_maps(model.vocab, model.schedule.sites(k))
    return signed.signature, maps, probs[:, None] * _joint_law(laws(signed))


def prefix_marginal(model: TabularModel, condition: Condition, k: int) -> Distribution:
    """p(r_k | c) over the maps with positive mass, in ``scale_maps`` order."""
    _, maps, joint = _step_joint(model, condition, k)
    total = joint.sum(axis=0)
    return Distribution(tuple(compress(maps, total > 0.0)), total[total > 0.0])


def prefix_marginal_sites(model, condition: Condition, k: int) -> np.ndarray:
    """Per-site p(r_k | c), shape (h_k, w_k, V), read-only, under the model's
    own prefix law walked to k - 1; step k's joint is never formed. Tabular
    models keep it per (condition, k), and the first call at a scale keeps
    every condition's and the null condition's, from one stacked walk; the
    marginals are the same bits as one walk each. Count models walk the
    exp of their logits on every call, each level's prefixes carried as one
    signed stack with their own codebook; a level of more than
    ``PREFIX_STATE_CAP`` prefixes raises TooLargeError (``chain_law``). A
    condition that is neither an integer nor the null condition raises
    InvalidInputError before the memo is read."""
    check_condition(condition)
    if isinstance(model, TabularModel):
        memo, conditions = model._marginals, [*range(model.num_conditions), NULL_CONDITION]
        if (condition, k) not in memo and condition in conditions:
            # One walk of every condition's laws, the null rows read from the model too.
            reads = [_site_laws(model, c) for c in conditions]
            stacked = _marginal_sites(model, k, lambda signed: np.stack([r(signed) for r in reads]))
            memo.update(((c, k), marginal) for c, marginal in zip(conditions, stacked))
        if (condition, k) in memo:
            return memo[(condition, k)]
    return _marginal_sites(model, k, _site_laws(model, condition))


def _marginal_sites(model, k: int, laws) -> np.ndarray:
    """Per-site p(r_k), (..., h_k, w_k, V), read-only, weighting the scale-k
    laws of ``laws`` (one walk's or a stack's) by the prefix law to k - 1."""
    signed, _, probs = chain_law(model, laws, k - 1)
    total = (probs[..., None, None] * laws(signed)).sum(axis=-3)
    total = total.reshape(total.shape[:-2] + model.schedule.grid(k) + (model.vocab,))
    total.setflags(write=False)
    return total


def prefix_posterior(model: TabularModel, condition: Condition, outcome, k: int) -> Distribution:
    """p(r_{<k} | r_k, c) by Bayes over the enumerated prefix space."""
    outcome = tuple(outcome)
    keys, maps, joint = _step_joint(model, condition, k)
    if outcome not in maps:
        raise InvalidInputError(f"outcome {outcome!r} is not a token map of scale {k}")
    weights = joint[:, maps.index(outcome)]
    support = weights > 0.0
    return Distribution(tuple(compress(keys, support)), weights[support] / weights[support].sum())


def _normalized_power_ratio(base: np.ndarray, reference: np.ndarray, strength: float) -> np.ndarray:
    weights = base * (base / reference) ** strength
    return weights / weights.sum(axis=-1, keepdims=True)


def augmented_vpg(model: TabularModel, condition: Condition, prefix, strength: float) -> Distribution:
    """Normalized p(r_k|prefix,c) (p(r_k|prefix,c) / p(r_k|c))^lambda over step k's maps.

    ``prefix`` is its token maps or its prefix key, checked by the model's
    ``embed``."""
    key = model.embed([prefix]).signature[0]
    base = step_map_distribution(model, condition, key)
    marg = prefix_marginal(model, condition, len(key) + 1)
    return Distribution(
        base.outcomes, _normalized_power_ratio(base.probs, marg.probs, strength)
    )


def augmented_cfg(model: TabularModel, condition: int, prefix, strength: float) -> Distribution:
    """Normalized p(r_k|prefix,c) (p(r_k|prefix,c) / p_null(r_k|prefix))^gamma over maps.

    k is the step after ``prefix``, given and checked as in ``augmented_vpg``.

    p_null is ``step_map_distribution`` of the null condition: a product over
    sites of each site's uniform mixture of class rows. On a single-site scale
    that is the uniform mixture of the class laws of the whole map; on a
    multi-site scale it is not, because a product of per-site mixtures is not
    a mixture of per-class products.
    """
    key = model.embed([prefix]).signature[0]
    base = step_map_distribution(model, condition, key)
    ref = step_map_distribution(model, NULL_CONDITION, key)
    return Distribution(
        base.outcomes, _normalized_power_ratio(base.probs, ref.probs, strength)
    )


def kl_divergence(observed: np.ndarray, oracle: np.ndarray) -> float:
    """KL(observed || oracle), natural log.

    Entries where observed is exactly 0 are masked out before the 1-D sum
    (0 log 0 = 0), as when a guided probability underflows; a NaN stays in
    and makes the KL NaN.
    """
    observed = np.asarray(observed, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    mask = observed != 0
    return float(np.sum(observed[mask] * np.log(observed[mask] / oracle[mask])))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class IdentityRow:
    kind: str
    condition: int
    scale: int
    prefix: PrefixKey
    gamma: float
    lam: float
    max_abs_diff: float
    kl: float


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Every identity row's max |difference| and KL, as float arrays in row
    order. ``row_at(i)`` builds row i; the report builds each row once, and
    only when ``rows`` or ``failures()`` reads it. ``sizes`` counts the rows
    of each model checked, in order; None is one model."""

    max_abs_diff: np.ndarray
    kl: np.ndarray
    tolerance: float
    row_at: Callable[[int], IdentityRow] = field(repr=False)
    sizes: tuple[int, ...] | None = None
    _built: dict = field(default_factory=dict, init=False, repr=False)

    def _row(self, i: int) -> IdentityRow:
        row = self._built.get(i)
        if row is None:
            row = self._built[i] = self.row_at(i)
        return row

    @property
    def rows(self) -> tuple[IdentityRow, ...]:
        """Every row, in order, each the same object on every read."""
        return tuple(map(self._row, range(self.kl.size)))

    @property
    def max_kl(self) -> float:
        """The largest row KL: NaN if any row's is, 0.0 with no rows."""
        return float(np.max(self.kl)) if self.kl.size else 0.0

    def failures(self) -> list[IdentityRow]:
        """Rows that do not hold: a NaN KL fails like one above tolerance."""
        failing = np.flatnonzero(~(self.kl <= self.tolerance))
        return [self._row(i) for i in failing.tolist()]

    def split(self) -> list["IdentityReport"]:
        """One report per model, in order, over views of this report's
        columns; a row read through either report is the same object."""
        reports, start = [], 0
        for size in (self.kl.size,) if self.sizes is None else self.sizes:
            stop = start + size
            reports.append(IdentityReport(
                self.max_abs_diff[start:stop], self.kl[start:stop], self.tolerance,
                lambda i, start=start: self._row(start + i)))
            start = stop
        return reports


def verify_identities(models: Sequence[TabularModel], spec: VerifySpec) -> IdentityReport:
    """Check the tabular guided step's composition against the exact
    augmented laws.

    For every model of ``models``, (condition, scale, prefix) and strength of
    ``spec``, the guided logits are ``guidance.compose_cfg_vpg`` of the
    branches ``guidance.gather_branches`` gathers on the enumerated prefix
    keys, the ones a tabular ``guided_step`` composes. At (gamma, 0) they
    must reproduce the augmented-CFG law of the null row (the exact
    uniform-prior condition marginal), at (0, lambda) the augmented-VPG law
    of the exact prefix marginal, and at (gamma, lambda) the four-term
    closed form written out
    here. The exact side reads the rows and marginals itself, so a fault in
    the step's rule or in which branch pairs it gathers fails rows. Not
    judged here: how ``guided_step`` turns a config into strengths (a
    contrast only from k >= 2, the scale mask, one lambda per row), which
    unit tests cover, and the null row itself, which both sides read as the
    mean of the class rows. Sites are independent given the prefix, so
    every law is checked per site, with per-site prefix marginals; on a
    single-site scale this is the joint-map law of ``augmented_cfg`` and
    ``augmented_vpg``.

    The models share one schedule and vocabulary, so they have the same
    prefixes. Scales with the same grid are checked together, so a schedule
    whose grids repeat makes one pass per distinct grid; each pass stacks
    the (model, condition) pairs of consecutive models whose condition rows
    fit in ``_STACK_ELEMENTS`` elements (a larger model alone). Rows are
    listed model by model, then by condition, scale, prefix, kind and
    strength; the report keeps their values as columns, builds a row only
    when it is read, and ``split()`` gives one report per model.
    """
    models = list(models)
    if any(m.schedule != models[0].schedule or m.vocab != models[0].vocab for m in models):
        raise InvalidInputError("the models checked together share a schedule and vocabulary")
    gammas, lambdas = spec.gammas, spec.lambdas
    checks = (
        [("cfg", gamma, 0.0) for gamma in gammas]
        + [("vpg", 0.0, lam) for lam in lambdas]
        + [("composition", gamma, lam) for gamma in gammas for lam in lambdas]
    )
    if not models or not checks:
        return IdentityReport(np.empty(0), np.empty(0), spec.tolerance, ().__getitem__,
                              (0,) * len(models))
    schedule, vocab = models[0].schedule, models[0].vocab
    groups: dict = {}  # grid -> [(k, prefix keys), ...]
    for k, grid in enumerate(schedule.dims, start=1):
        groups.setdefault(grid, []).append((k, enumerate_prefix_keys(schedule, vocab, k)))
    # k -> (keys, max |diff|, KL), the last two (G, P_k, checks) arrays over
    # the G (model, condition) pairs.
    checked = {}
    for grid, group in groups.items():
        elements = sum(len(keys) for _, keys in group) * int(np.prod(grid)) * vocab
        diffs, kls = map(np.concatenate, zip(*[
            _check_grid(run, group, gammas, lambdas) for run in _passes(models, elements)]))
        start = 0
        for k, keys in group:
            stop = start + len(keys)
            checked[k] = (keys, diffs[:, start:stop], kls[:, start:stop])
            start = stop
    scales = [checked[k] for k in sorted(checked)]
    max_abs_diff = np.concatenate([diffs for _, diffs, _ in scales], axis=1).ravel()
    kl = np.concatenate([kls for _, _, kls in scales], axis=1).ravel()
    conditions = [c for m in models for c in range(m.num_conditions)]
    per_condition = len(max_abs_diff) // len(conditions)

    def row_at(i: int) -> IdentityRow:
        pair, j = divmod(i, per_condition)
        for k, (keys, _, _) in enumerate(scales, start=1):
            if j < len(keys) * len(checks):
                break
            j -= len(keys) * len(checks)
        p, check = divmod(j, len(checks))
        kind, gamma, lam = checks[check]
        return IdentityRow(kind, conditions[pair], k, keys[p], gamma, lam,
                           float(max_abs_diff[i]), float(kl[i]))

    sizes = tuple(m.num_conditions * per_condition for m in models)
    return IdentityReport(max_abs_diff, kl, spec.tolerance, row_at, sizes)


# A pass stacks at most this many condition-row elements (unless one model
# alone has more), and its strengths in blocks of at most this many
# elements, so a model near ``PREFIX_STATE_CAP`` holds a few strengths'
# arrays at a time, not every strength's at once.
_STACK_ELEMENTS = 1 << 16


def _passes(models: list[TabularModel], elements: int) -> list[list[TabularModel]]:
    """``models`` cut into passes of consecutive models whose condition rows,
    ``elements`` per condition, fit in ``_STACK_ELEMENTS`` together; a model
    larger than that is a pass of its own."""
    passes, size = [], 0
    for model in models:
        rows = model.num_conditions * elements
        if passes and size + rows <= _STACK_ELEMENTS:
            passes[-1].append(model)
            size += rows
        else:
            passes.append([model])
            size = rows
    return passes


def _branch_stacks(models: list[TabularModel], scales):
    """The four branch laws of a pass, each a (G, P, h, w, V) stack over the
    G (model, condition) pairs of ``models`` in order and the P prefixes of
    ``scales`` in order: the condition rows, the null rows, the condition's
    exact marginals and the null condition's. A model's null rows are taken
    once per prefix and its null marginals once per scale, and both are
    repeated over that model's conditions only; each scale's marginals are
    repeated over that scale's prefixes."""
    sites = models[0].schedule.grid(scales[0][0]) + (models[0].vocab,)
    prefixes = sum(len(keys) for _, keys in scales)

    def rows(model, condition):
        """The condition's rows of every prefix, (P, h, w, V)."""
        return np.concatenate([model.rows(condition, k, keys) for k, keys in scales])

    def marginals(model, condition):
        """The condition's exact marginal at each prefix's scale, (P, h, w, V)."""
        return np.concatenate([
            np.broadcast_to(prefix_marginal_sites(model, condition, k),
                            (len(keys),) + sites)
            for k, keys in scales
        ])

    def per_pair(read):
        return np.stack([read(m, c) for m in models for c in range(m.num_conditions)])

    def per_model(read):
        """``read`` at each model's null condition, over that model's conditions."""
        return np.concatenate([
            np.broadcast_to(read(m, NULL_CONDITION), (m.num_conditions, prefixes) + sites)
            for m in models
        ])

    return per_pair(rows), per_model(rows), per_pair(marginals), per_model(marginals)


def _check_grid(models: list[TabularModel], scales, gammas, lambdas):
    """Max |difference| and KL of every check on ``scales``, a list of
    (k, prefix keys) whose scales share one grid, for every (model,
    condition) pair of ``models``, in one pass per block of strengths.

    Both sides are (G, P, h, w, V) stacks, the prefixes of every scale on
    the P axis in the order given. The guided side is
    ``guidance.gather_branches`` on the prefix keys, the branches
    ``guided_step`` gathers for a tabular step, composed by
    ``guidance.compose_cfg_vpg``: a block's strengths go on a leading axis
    as (S, 1, ..., 1) gamma and lambda
    columns, so one composition, softmax and row reduction run per block,
    and each stack is (S, G, P, h, w, V). The exact side is
    ``_branch_stacks``, this module's own reads of the rows and marginals,
    so a fault in the step's branch wiring shows on one side only. Its
    oracle law stays per strength, whose ``**`` takes a scalar exponent as
    on one row (an exponent column takes NumPy's array ``pow``, which
    changes bits at 0.5 and 2.0). Returns two (G, P, checks) arrays, checks
    in ``verify_identities``' order.
    """
    # The package's one upward import: ``guidance`` imports this module, so
    # it is imported here, where the code under test runs. Nothing moves
    # instead: the bench traces ``oracle.verify_identities`` (its 7,332-row
    # gate) and ``oracle.prefix_marginal_sites`` (its marginal counters) by
    # qualified name, and putting ``gather_branches`` and ``compose_cfg_vpg``
    # below this module would add a module.
    from . import guidance

    cond, null_rows, margs, null_margs = _branch_stacks(models, scales)
    l_cg, l_ng, l_cc, l_nc = (np.log(law) for law in (cond, null_rows, margs, null_margs))

    def gathered(model, condition):
        """The four branches a tabular ``guided_step`` gathers at ``condition``,
        for every prefix of ``scales``, (P, h, w, V) each."""
        return map(np.concatenate, zip(*[
            guidance.gather_branches(model, condition, k, keys, needs_cfg=True, marginal=True)
            for k, keys in scales]))

    branches = guidance.BranchLogits(*map(np.stack, zip(*[
        gathered(m, c) for m in models for c in range(m.num_conditions)])))
    per_block = max(1, _STACK_ELEMENTS // cond.size)

    def blocks(items):
        return [items[i:i + per_block] for i in range(0, len(items), per_block)]

    def column(values):
        return np.array(values, dtype=float).reshape((-1,) + (1,) * cond.ndim)

    diffs, kls = [], []
    # In ``verify_identities``' check order: CFG alone at every (gamma, 0)
    # against the null rows' law, then the prefix contrast alone at every
    # (0, lambda) against the exact marginals' law.
    for ref, strengths, at in ((null_rows, gammas, lambda s: (s, 0.0)),
                               (margs, lambdas, lambda s: (0.0, s))):
        for block in blocks(strengths):
            guided = softmax(guidance.compose_cfg_vpg(branches, *at(column(block))))
            oracle_p = np.stack([_normalized_power_ratio(cond, ref, s) for s in block])
            diffs.append(_row_max_abs(guided - oracle_p))
            kls.append(_row_kls(guided, oracle_p))
    # Sequential composition vs. its closed-form expansion, with the exact
    # marginals standing in for the corrupted branches.
    for block in blocks([(gamma, lam) for gamma in gammas for lam in lambdas]):
        gamma, lam = (column(values) for values in zip(*block))
        sequential = guidance.compose_cfg_vpg(branches, gamma, lam)
        closed = (
            (1 + lam) * (1 + gamma) * l_cg
            - (1 + lam) * gamma * l_ng
            - lam * (1 + gamma) * l_cc
            + lam * gamma * l_nc
        )
        diffs.append(_row_max_abs(sequential - closed))
        kls.append(_row_kls(softmax(sequential), softmax(closed)))
    per_check = (-1,) + cond.shape[:2]
    return (np.concatenate(diffs).reshape(per_check).transpose(1, 2, 0),
            np.concatenate(kls).reshape(per_check).transpose(1, 2, 0))


def _row_max_abs(diff: np.ndarray) -> np.ndarray:
    """max |diff| over each (strength, condition, prefix) row of an
    (S, C, P, h, w, V) stack, rows flattened in that order."""
    return np.abs(diff).reshape(int(np.prod(diff.shape[:3])), -1).max(axis=1)


def _row_kls(observed: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """``kl_divergence`` of each (strength, condition, prefix) row of two
    (S, C, P, h, w, V) stacks, bit for bit, rows flattened in that order.

    Summing a row's contiguous trailing axes runs the same pairwise sum as the
    1-D call. A row with an observed zero keeps ``kl_divergence``'s masked
    sum, whose terms pair differently once eight or more remain.
    """
    obs = observed.reshape(int(np.prod(observed.shape[:3])), -1)
    ora = oracle.reshape(obs.shape)
    full = np.all(obs != 0, axis=1)
    if full.all():
        return np.sum(obs * np.log(obs / ora), axis=1)
    kls = np.empty(len(obs))
    kls[full] = np.sum(obs[full] * np.log(obs[full] / ora[full]), axis=1)
    for i in np.flatnonzero(~full):
        kls[i] = kl_divergence(obs[i], ora[i])
    return kls


def write_report_csv(report: IdentityReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["kind", "condition", "scale", "prefix", "gamma", "lambda",
             "max_abs_diff", "kl"]
        )
        for r in report.rows:
            writer.writerow(
                [r.kind, r.condition, r.scale, repr(r.prefix), r.gamma, r.lam,
                 repr(r.max_abs_diff), repr(r.kl)]
            )
