"""Brute-force ground truth on enumerable models.

Everything here is exact: one engine, ``chain_law``, chains per-site step
laws (CPT rows, or a count model's own predictions) into sequence laws;
marginals are sums over the full prefix space, and the augmented
distributions are the normalized ratio forms the guidance algebra is
supposed to reproduce.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError
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


def chain_law(step_law, num_scales: int) -> list[tuple[PrefixKey, float]]:
    """Every token sequence of ``num_scales`` maps with its probability.

    ``step_law(key)`` is the per-site law, shape (h*w, V), of the map that
    follows the prefix ``key``; sites are independent given the prefix.
    Sequences are extended in lexicographic order and zero-mass extensions
    are dropped, so the pairs list the support of the chained law.
    """
    sequences = [((), 1.0)]
    for _ in range(num_scales):
        extended = []
        for seq, p in sequences:
            law = step_law(seq)
            maps = scale_maps(law.shape[1], law.shape[0])
            extended.extend(
                (seq + (ids,), p * q) for ids, q in zip(maps, _joint_law(law)) if q > 0.0
            )
        sequences = extended
    return sequences


def _joint_law(law: np.ndarray) -> list[float]:
    """Probability of each map of a step, in ``scale_maps`` order, from its
    per-site (S, V) law.

    The outer product is taken site by site, left to right, which multiplies
    each map's site probabilities in the order ``np.prod`` does, bit for bit.
    """
    joint = law[0]
    for site in law[1:]:
        joint = np.multiply.outer(joint, site).ravel()
    return joint.tolist()


def _site_law(model, condition: Condition, book: Codebook | None = None):
    """Per-site step law of a tabular or count model, as ``chain_law`` takes it."""
    if isinstance(model, TabularModel):
        return lambda key: model.row(condition, len(key) + 1, key).reshape(-1, model.vocab)
    return lambda key: np.exp(
        predict_logits(model, condition, prefix_maps(key, model.schedule), book=book)
    ).reshape(-1, model.vocab)


def step_map_distribution(model: TabularModel, condition: Condition, key: PrefixKey) -> Distribution:
    """Joint distribution over the whole token maps of the step after ``key``."""
    row = model.row(condition, len(key) + 1, key).reshape(-1, model.vocab)
    return Distribution(scale_maps(model.vocab, row.shape[0]), np.asarray(_joint_law(row)))


def enumerate_prefixes(model: TabularModel, condition: Condition, k: int) -> list[tuple[PrefixKey, float]]:
    """All (prefix, p(prefix | c)) pairs for the step at scale k."""
    return chain_law(_site_law(model, condition), k - 1)


def prefix_marginal(model: TabularModel, condition: Condition, k: int) -> Distribution:
    """p(r_k | c) over whole token maps, summed over the prefix space."""
    total: dict = {}
    for seq, p in chain_law(_site_law(model, condition), k):
        total[seq[-1]] = total.get(seq[-1], 0.0) + p
    return Distribution(tuple(total), np.asarray(list(total.values())))


def prefix_marginal_sites(
    model, condition: Condition, k: int, *, book: Codebook | None = None
) -> np.ndarray:
    """Per-site p(r_k | c), shape (h_k, w_k, V), under the model's own prefix law.

    Tabular models chain their stored rows once per (condition, k) and keep
    the result; count models chain ``exp(predict_logits)`` on every call and
    need the codebook. The array is read-only.
    """
    memo = model._marginals if isinstance(model, TabularModel) else {}
    total = memo.get((condition, k))
    if total is None:
        law = _site_law(model, condition, book)
        total = np.zeros(model.schedule.grid(k) + (model.vocab,))
        for key, p in chain_law(law, k - 1):
            total += p * law(key).reshape(total.shape)
        total.setflags(write=False)
        memo[(condition, k)] = total
    return total


def prefix_posterior(model: TabularModel, condition: Condition, outcome, k: int) -> Distribution:
    """p(r_{<k} | r_k, c) by Bayes over the enumerated prefix space."""
    outcome = tuple(outcome)
    pairs = [
        (seq[:-1], p)
        for seq, p in chain_law(_site_law(model, condition), k)
        if seq[-1] == outcome
    ]
    weights = np.asarray([p for _, p in pairs])
    return Distribution(tuple(key for key, _ in pairs), weights / weights.sum())


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
    only when ``rows`` or ``failures()`` reads it."""

    max_abs_diff: np.ndarray
    kl: np.ndarray
    tolerance: float
    row_at: Callable[[int], IdentityRow] = field(repr=False)
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


@dataclass(frozen=True)
class VerifySpec:
    """The config's ``verify`` section: ``verify_identities`` reads the row
    tolerance and strengths, the ``verify`` command the model grid too."""

    tolerance: float = 1e-9
    models: int = 100
    vocab_grid: tuple[int, ...] = (2, 3, 5)
    condition_grid: tuple[int, ...] = (1, 2, 3)
    gammas: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 3.0)
    lambdas: tuple[float, ...] = (0.0, 0.5, 1.0, 1.3, 1.8, 2.4, 3.0)


def verify_identities(model: TabularModel, spec: VerifySpec) -> IdentityReport:
    """Check the package's guidance rule against the exact augmented laws.

    For every (condition, scale, prefix) and every strength of ``spec``,
    ``guidance.extrapolate`` must reproduce the augmented law of each of its
    two references: the null row (the exact uniform-prior condition marginal)
    gives the augmented-CFG law, the exact prefix marginal the augmented-VPG
    law. ``guidance.compose_cfg_vpg``, which applies the rule per branch pair
    and then across the pairs, must match the four-term closed form written
    out here. Sites are independent given the prefix, so every law is checked
    per site, with per-site prefix marginals; on a single-site scale this is
    the joint-map law of ``augmented_cfg`` and ``augmented_vpg``.

    Scales with the same grid are checked in one ``_check_grid`` pass, so a
    schedule whose grids repeat makes one pass per distinct grid. Rows are
    listed by condition, scale, prefix, then kind and strength; the report
    keeps their values as columns and builds a row only when it is read.
    """
    gammas, lambdas = spec.gammas, spec.lambdas
    checks = (
        [("cfg", gamma, 0.0) for gamma in gammas]
        + [("vpg", 0.0, lam) for lam in lambdas]
        + [("composition", gamma, lam) for gamma in gammas for lam in lambdas]
    )
    if not checks:
        return IdentityReport(np.empty(0), np.empty(0), spec.tolerance, ().__getitem__)
    groups: dict = {}  # grid -> [(k, prefix keys), ...]
    for k, grid in enumerate(model.schedule.dims, start=1):
        keys = enumerate_prefix_keys(model.schedule, model.vocab, k)
        groups.setdefault(grid, []).append((k, keys))
    # k -> (keys, max |diff|, KL), the last two (C, P_k, checks) arrays.
    checked = {}
    for group in groups.values():
        diffs, kls = _check_grid(model, group, gammas, lambdas)
        start = 0
        for k, keys in group:
            stop = start + len(keys)
            checked[k] = (keys, diffs[:, start:stop], kls[:, start:stop])
            start = stop
    scales = [checked[k] for k in sorted(checked)]
    max_abs_diff = np.concatenate([diffs for _, diffs, _ in scales], axis=1).ravel()
    kl = np.concatenate([kls for _, _, kls in scales], axis=1).ravel()
    per_condition = len(max_abs_diff) // model.num_conditions

    def row_at(i: int) -> IdentityRow:
        c, j = divmod(i, per_condition)
        for k, (keys, _, _) in enumerate(scales, start=1):
            if j < len(keys) * len(checks):
                break
            j -= len(keys) * len(checks)
        p, check = divmod(j, len(checks))
        kind, gamma, lam = checks[check]
        return IdentityRow(kind, c, k, keys[p], gamma, lam,
                           float(max_abs_diff[i]), float(kl[i]))

    return IdentityReport(max_abs_diff, kl, spec.tolerance, row_at)


# Strengths are stacked in blocks of at most this many elements, so a model
# near ``PREFIX_STATE_CAP`` holds a few strengths' arrays at a time, not every
# strength's at once.
_STACK_ELEMENTS = 1 << 16


def _check_grid(model: TabularModel, scales, gammas, lambdas):
    """Max |difference| and KL of every check on ``scales``, a list of
    (k, prefix keys) whose scales share one grid, in one pass per block of
    strengths.

    The stored rows of every (condition, scale, prefix) are stacked into one
    (C, P, h, w, V) array, the prefixes of every scale on the P axis in the
    order given. The null row is computed once per prefix, and each scale's
    exact marginals once per condition and repeated over that scale's
    prefixes; the null condition's marginal broadcasts over C. The strengths
    of a block go on a leading axis as an (S, 1, ..., 1) column, so every
    stack is (S, C, P, h, w, V), and the rule, softmax and row reductions run
    once per block. Two things stay per strength: the oracle law, whose
    ``**`` takes a scalar exponent as on one row (an exponent column takes
    NumPy's array ``pow``, which changes bits at 0.5 and 2.0), and
    ``guidance.compose_cfg_vpg``, the function under test. Returns two
    (C, P, checks) arrays, checks in ``verify_identities``' order.
    """
    # The package's one upward import: ``guidance`` imports this module, so
    # it is imported here, where the code under test runs. Nothing moves
    # instead: the bench traces ``oracle.verify_identities`` (its 7,332-row
    # gate) and ``oracle.prefix_marginal_sites`` (its marginal counters) by
    # qualified name, and putting ``extrapolate`` and ``compose_cfg_vpg``
    # below this module would add a module.
    from . import guidance

    conditions = range(model.num_conditions)
    cond = np.stack([[model.row(c, k, key) for k, keys in scales for key in keys]
                     for c in conditions])
    shape = cond.shape

    def marginals(condition):
        """The condition's exact marginal at each prefix's scale, (P, h, w, V)."""
        return np.concatenate([
            np.broadcast_to(prefix_marginal_sites(model, condition, k),
                            (len(keys),) + shape[2:])
            for k, keys in scales
        ])

    null_rows = np.stack([model.row(NULL_CONDITION, k, key)
                          for k, keys in scales for key in keys])
    margs = np.stack([marginals(c) for c in conditions])
    l_cg = np.log(cond)
    l_ng = np.broadcast_to(np.log(null_rows), shape)
    l_cc = np.log(margs)
    l_nc = np.broadcast_to(np.log(marginals(NULL_CONDITION)), shape)
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
