"""Brute-force ground truth on enumerable models.

Everything here is exact: one engine, ``chain_law``, walks the prefix space
one scale at a time, chaining the per-site step laws of every live prefix
of a scale at once (CPT rows, or a count model's own predictions). The
enumerators and marginals read its last level, and the augmented
distributions are the normalized ratio forms the guidance algebra is
supposed to reproduce.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .errors import (NONNEGATIVE, NONNEGATIVE_INT, POSITIVE_INT, InvalidInputError, bounded,
                     check_fields)
from .model import (
    Condition,
    NULL_CONDITION,
    PrefixKey,
    TabularModel,
    enumerate_prefix_keys,
    predict_logits,
    prefix_key,
    prefix_maps,
    scale_maps,
)
from .tokenizer import Codebook


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


def chain_law(step_laws, num_scales: int) -> tuple[list[PrefixKey], np.ndarray]:
    """Every sequence of ``num_scales`` token maps with positive probability,
    walked one scale at a time, as (keys, probs) in lexicographic order.

    ``step_laws(keys)`` returns the per-site laws, (P, h*w, V), of the map
    after each of a level's P live prefix keys; sites are independent given
    the prefix."""
    keys, probs = [()], np.ones(1)
    for _ in range(num_scales):
        laws = step_laws(keys)
        maps = scale_maps(laws.shape[2], laws.shape[1])
        joint = probs[:, None] * _joint_law(laws)
        rows, cols = np.nonzero(joint > 0.0)
        keys = [keys[i] + (maps[j],) for i, j in zip(rows.tolist(), cols.tolist())]
        probs = joint[rows, cols]
    return keys, probs


def _joint_law(laws: np.ndarray) -> np.ndarray:
    """Probability of each map of a step, (P, V**S) in ``scale_maps`` order,
    from P prefixes' per-site (P, S, V) laws: an outer product site by site,
    left to right, which multiplies in ``np.prod``'s order, bit for bit."""
    joint = np.ones((len(laws), 1))
    for site in np.moveaxis(laws, 1, 0):
        joint = (joint[:, :, None] * site[:, None]).reshape(len(laws), -1)
    return joint


def _site_laws(model, condition: Condition, book: Codebook | None = None):
    """Per-site step laws of a tabular or count model, as ``chain_law`` takes them."""
    def laws(keys):
        if isinstance(model, TabularModel):
            return model.rows(condition, len(keys[0]) + 1, keys)
        return np.stack([np.exp(predict_logits(model, condition, prefix_maps(key, model.schedule),
                                               book=book)) for key in keys])
    return lambda keys: laws(keys).reshape(len(keys), -1, model.vocab)


def step_map_distribution(model: TabularModel, condition: Condition, key: PrefixKey) -> Distribution:
    """Joint distribution over the whole token maps of the step after ``key``."""
    laws = _site_laws(model, condition)([key])
    return Distribution(scale_maps(model.vocab, laws.shape[1]), _joint_law(laws)[0])


def enumerate_prefixes(model: TabularModel, condition: Condition, k: int) -> list[tuple[PrefixKey, float]]:
    """All (prefix, p(prefix | c)) pairs for the step at scale k."""
    keys, probs = chain_law(_site_laws(model, condition), k - 1)
    return list(zip(keys, probs.tolist()))


def _step_joint(model: TabularModel, condition: Condition, k: int):
    """Scale k's prefixes, its maps, and p(prefix, r_k | c) over both, (P, V**S)."""
    laws = _site_laws(model, condition)
    keys, probs = chain_law(laws, k - 1)
    maps = scale_maps(model.vocab, model.schedule.sites(k))
    return keys, maps, probs[:, None] * _joint_law(laws(keys))


def prefix_marginal(model: TabularModel, condition: Condition, k: int) -> Distribution:
    """p(r_k | c) over the maps with positive mass, in ``scale_maps`` order."""
    _, maps, joint = _step_joint(model, condition, k)
    total = joint.sum(axis=0)
    return Distribution(tuple(compress(maps, total > 0.0)), total[total > 0.0])


def prefix_marginal_sites(
    model, condition: Condition, k: int, *, book: Codebook | None = None
) -> np.ndarray:
    """Per-site p(r_k | c), shape (h_k, w_k, V), read-only, under the model's
    own prefix law walked to k - 1; step k's joint is never formed. Tabular
    models keep it per (condition, k); count models walk ``exp(predict_logits)``
    on every call and need the codebook."""
    memo = model._marginals if isinstance(model, TabularModel) else {}
    total = memo.get((condition, k))
    if total is None:
        laws = _site_laws(model, condition, book)
        keys, probs = chain_law(laws, k - 1)
        total = (probs[:, None, None] * laws(keys)).sum(axis=0)
        total = total.reshape(model.schedule.grid(k) + (model.vocab,))
        total.setflags(write=False)
        memo[(condition, k)] = total
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
    """Normalized p(r_k|prefix,c) (p(r_k|prefix,c) / p(r_k|c))^lambda over step k's maps."""
    key = prefix_key(prefix)
    base = step_map_distribution(model, condition, key)
    marg = prefix_marginal(model, condition, len(key) + 1)
    return Distribution(
        base.outcomes, _normalized_power_ratio(base.probs, marg.probs, strength)
    )


def augmented_cfg(model: TabularModel, condition: int, prefix, strength: float) -> Distribution:
    """Normalized p(r_k|prefix,c) (p(r_k|prefix,c) / p_null(r_k|prefix))^gamma over maps.

    k is the step after ``prefix``, as in ``augmented_vpg``.

    p_null is ``step_map_distribution`` of the null condition: a product over
    sites of each site's uniform mixture of class rows. On a single-site scale
    that is the uniform mixture of the class laws of the whole map; on a
    multi-site scale it is not, because a product of per-site mixtures is not
    a mixture of per-class products.
    """
    key = prefix_key(prefix)
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


@dataclass(frozen=True)
class VerifySpec:
    """The config's ``verify`` section: ``verify_identities`` reads the row
    tolerance and strengths, the ``verify`` command the model grid too."""

    tolerance: float = bounded(1e-9, NONNEGATIVE)
    models: int = bounded(100, NONNEGATIVE_INT)
    vocab_grid: tuple[int, ...] = bounded((2, 3, 5), POSITIVE_INT)
    condition_grid: tuple[int, ...] = bounded((1, 2, 3), POSITIVE_INT)
    gammas: tuple[float, ...] = bounded((0.0, 0.5, 1.0, 1.5, 3.0), NONNEGATIVE)
    lambdas: tuple[float, ...] = bounded((0.0, 0.5, 1.0, 1.3, 1.8, 2.4, 3.0), NONNEGATIVE)

    def __post_init__(self):
        check_fields(self, InvalidInputError)


def verify_identities(models: Sequence[TabularModel], spec: VerifySpec) -> IdentityReport:
    """Check the package's guidance rule against the exact augmented laws.

    For every model of ``models``, (condition, scale, prefix) and strength of
    ``spec``, ``guidance.extrapolate`` must reproduce the augmented law of
    each of its two references: the null row (the exact uniform-prior
    condition marginal) gives the augmented-CFG law, the exact prefix
    marginal the augmented-VPG law. ``guidance.compose_cfg_vpg``, which
    applies the rule per branch pair and then across the pairs, must match
    the four-term closed form written out here. Sites are independent given
    the prefix, so every law is checked per site, with per-site prefix
    marginals; on a single-site scale this is the joint-map law of
    ``augmented_cfg`` and ``augmented_vpg``.

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

    The four branch laws are ``_branch_stacks``' (G, P, h, w, V) arrays,
    the prefixes of every scale on the P axis in the order given. The
    strengths of a block go on a leading axis as an (S, 1, ..., 1) column,
    so every stack is (S, G, P, h, w, V), and the rule, softmax and row
    reductions run once per block. Two things stay per strength: the oracle
    law, whose ``**`` takes a scalar exponent as on one row (an exponent
    column takes NumPy's array ``pow``, which changes bits at 0.5 and 2.0),
    and ``guidance.compose_cfg_vpg``, the function under test. Returns two
    (G, P, checks) arrays, checks in ``verify_identities``' order.
    """
    # The package's one upward import: ``guidance`` imports this module, so
    # it is imported here, where the code under test runs. Nothing moves
    # instead: the bench traces ``oracle.verify_identities`` (its 7,332-row
    # gate) and ``oracle.prefix_marginal_sites`` (its marginal counters) by
    # qualified name, and putting ``extrapolate`` and ``compose_cfg_vpg``
    # below this module would add a module.
    from . import guidance

    cond, null_rows, margs, null_margs = _branch_stacks(models, scales)
    shape = cond.shape
    l_cg, l_ng, l_cc, l_nc = (np.log(law) for law in (cond, null_rows, margs, null_margs))
    branches = guidance.BranchLogits(l_cg, l_ng, l_cc, l_nc)
    per_block = max(1, _STACK_ELEMENTS // cond.size)

    def blocks(items):
        return [items[i:i + per_block] for i in range(0, len(items), per_block)]

    def column(values):
        return np.array(values, dtype=float).reshape((-1,) + (1,) * cond.ndim)

    diffs, kls = [], []
    # One rule, two references, in ``verify_identities``' check order: the null
    # rows at every CFG strength, then the exact marginals at every VPG one.
    for ref, ref_logits, strengths in ((null_rows, l_ng, gammas), (margs, l_cc, lambdas)):
        for block in blocks(strengths):
            guided = softmax(guidance.extrapolate(l_cg, ref_logits, column(block)))
            oracle_p = np.stack([_normalized_power_ratio(cond, ref, s) for s in block])
            diffs.append(_row_max_abs(guided - oracle_p))
            kls.append(_row_kls(guided, oracle_p))
    # Sequential composition vs. its closed-form expansion, with the exact
    # marginals standing in for the corrupted branches.
    for block in blocks([(gamma, lam) for gamma in gammas for lam in lambdas]):
        sequential = np.stack([guidance.compose_cfg_vpg(branches, gamma, lam)
                               for gamma, lam in block])
        gamma, lam = (column(values) for values in zip(*block))
        closed = (
            (1 + lam) * (1 + gamma) * l_cg
            - (1 + lam) * gamma * l_ng
            - lam * (1 + gamma) * l_cc
            + lam * gamma * l_nc
        )
        diffs.append(_row_max_abs(sequential - closed))
        kls.append(_row_kls(softmax(sequential), softmax(closed)))
    per_check = (-1,) + shape[:2]
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
