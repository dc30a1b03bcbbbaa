"""Brute-force ground truth on enumerable models.

Everything here is exact: one engine, ``chain_law``, chains per-site step
laws (CPT rows, or a count model's own predictions) into sequence laws;
marginals are sums over the full prefix space, and the augmented
distributions are the normalized ratio forms the guidance algebra is
supposed to reproduce.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import guidance
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

    def prob(self, outcome) -> float:
        return float(self.probs[self.outcomes.index(outcome)])

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
            sites = np.arange(law.shape[0])
            for combo in product(range(law.shape[1]), repeat=law.shape[0]):
                q = float(np.prod(law[sites, combo]))
                if q > 0.0:
                    extended.append((seq + (combo,), p * q))
        sequences = extended
    return sequences


def _site_law(model, condition: Condition, book: Codebook | None = None):
    """Per-site step law of a tabular or count model, as ``chain_law`` takes it."""
    if isinstance(model, TabularModel):
        return lambda key: model.row(condition, len(key) + 1, key).reshape(-1, model.vocab)
    return lambda key: np.exp(
        predict_logits(model, condition, prefix_maps(key, model.schedule), book=book)
    ).reshape(-1, model.vocab)


def step_map_distribution(model: TabularModel, condition: Condition, key: PrefixKey, k: int) -> Distribution:
    """Joint distribution over whole scale-k token maps given one prefix."""
    row = model.row(condition, k, key).reshape(-1, model.vocab)
    pairs = chain_law(lambda _: row, 1)
    return Distribution(
        tuple(seq[0] for seq, _ in pairs), np.asarray([q for _, q in pairs])
    )


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

    Tabular models chain their stored rows; count models chain
    ``exp(predict_logits)`` and need the codebook.
    """
    law = _site_law(model, condition, book)
    total = np.zeros(model.schedule.grid(k) + (model.vocab,))
    for key, p in chain_law(law, k - 1):
        total += p * law(key).reshape(total.shape)
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


def augmented_vpg(model: TabularModel, condition: Condition, prefix, strength: float, k: int) -> Distribution:
    """Normalized p(r_k|prefix,c) (p(r_k|prefix,c) / p(r_k|c))^lambda over maps."""
    key = prefix_key(prefix)
    base = step_map_distribution(model, condition, key, k)
    marg = prefix_marginal(model, condition, k)
    return Distribution(
        base.outcomes, _normalized_power_ratio(base.probs, marg.probs, strength)
    )


def augmented_cfg(model: TabularModel, condition: int, prefix, strength: float, k: int) -> Distribution:
    """Normalized p(r_k|prefix,c) (p(r_k|prefix,c) / p_null(r_k|prefix))^gamma over maps.

    p_null is ``step_map_distribution`` of the null condition: a product over
    sites of each site's uniform mixture of class rows. On a single-site scale
    that is the uniform mixture of the class laws of the whole map; on a
    multi-site scale it is not, because a product of per-site mixtures is not
    a mixture of per-class products.
    """
    key = prefix_key(prefix)
    base = step_map_distribution(model, condition, key, k)
    ref = step_map_distribution(model, NULL_CONDITION, key, k)
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


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


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


@dataclass(frozen=True)
class IdentityReport:
    rows: tuple[IdentityRow, ...]
    tolerance: float

    @property
    def max_kl(self) -> float:
        """The largest row KL: NaN if any row's is, 0.0 with no rows."""
        return float(np.max([r.kl for r in self.rows])) if self.rows else 0.0

    @property
    def passed(self) -> bool:
        return all(r.kl <= self.tolerance for r in self.rows)

    def failures(self) -> list[IdentityRow]:
        """Rows that do not hold: a NaN KL fails like one above tolerance."""
        return [r for r in self.rows if not r.kl <= self.tolerance]


def verify_identities(
    model: TabularModel,
    tolerance: float = 1e-9,
    gammas=(0.0, 0.5, 1.0, 1.5, 3.0),
    lams=(0.0, 0.5, 1.0, 1.3, 1.8, 2.4, 3.0),
) -> IdentityReport:
    """Check the package's guidance combiners against the exact augmented laws.

    For every (condition, scale, prefix) and every strength on the grid:
    ``guidance.cfg_combine`` with the exact uniform-prior condition marginal
    as the null branch must reproduce the augmented-CFG law,
    ``guidance.vpg_combine`` with the exact prefix marginal as reference must
    reproduce the augmented-VPG law, and ``guidance.compose_cfg_vpg`` must
    match the four-term closed form written out here. Sites are independent
    given the prefix, so every law is checked per site, with per-site prefix
    marginals; on a single-site scale this is the joint-map law of
    ``augmented_cfg`` and ``augmented_vpg``.

    Rows are listed by condition, scale, prefix, then kind and strength.
    """
    checks = (
        [("cfg", gamma, 0.0) for gamma in gammas]
        + [("vpg", 0.0, lam) for lam in lams]
        + [("composition", gamma, lam) for gamma in gammas for lam in lams]
    )
    if not checks:
        return IdentityReport((), tolerance)
    scales = []
    for k in range(1, model.schedule.num_scales + 1):
        keys = enumerate_prefix_keys(model.schedule, model.vocab, k)
        scales.append((k, keys) + _check_scale(model, k, keys, gammas, lams))
    rows = tuple(
        IdentityRow(kind, c, k, key, gamma, lam, diff, kl)
        for c in range(model.num_conditions)
        for k, keys, diffs, kls in scales
        for key, key_diffs, key_kls in zip(keys, diffs[c], kls[c])
        for (kind, gamma, lam), diff, kl in zip(checks, key_diffs, key_kls)
    )
    return IdentityReport(rows, tolerance)


def _check_scale(model: TabularModel, k: int, keys, gammas, lams):
    """Max |difference| and KL of every check at scale k, in one pass per strength.

    The stored rows of every (condition, prefix) are stacked into one
    (C, P, h_k, w_k, V) array; the null row, computed once per prefix, and the
    exact marginals broadcast over the axes they do not depend on. Each
    strength stays a Python scalar, so ``**`` takes the same path as on one
    row. Returns two (C, P, checks) nested lists, checks in
    ``verify_identities``' order.
    """
    cond = np.stack([[model.row(c, k, key) for key in keys]
                     for c in range(model.num_conditions)])
    shape = cond.shape
    null_rows = np.stack([model.row(NULL_CONDITION, k, key) for key in keys])
    margs = np.stack([prefix_marginal_sites(model, c, k)
                      for c in range(model.num_conditions)])[:, None]
    l_cg = np.log(cond)
    l_ng = np.broadcast_to(np.log(null_rows), shape)
    l_cc = np.broadcast_to(np.log(margs), shape)
    l_nc = np.broadcast_to(np.log(prefix_marginal_sites(model, NULL_CONDITION, k)), shape)
    branches = guidance.BranchLogits(l_cg, l_ng, l_cc, l_nc)

    diffs, kls = [], []
    for gamma in gammas:
        guided = softmax(guidance.cfg_combine(l_cg, l_ng, gamma))
        oracle_p = _normalized_power_ratio(cond, null_rows, gamma)
        diffs.append(_row_max_abs(guided - oracle_p))
        kls.append(_row_kls(guided, oracle_p))
    for lam in lams:
        guided = softmax(guidance.vpg_combine(l_cg, l_cc, lam))
        oracle_p = _normalized_power_ratio(cond, margs, lam)
        diffs.append(_row_max_abs(guided - oracle_p))
        kls.append(_row_kls(guided, oracle_p))
    # Sequential composition vs. its closed-form expansion, with the exact
    # marginals standing in for the corrupted branches.
    for gamma in gammas:
        for lam in lams:
            sequential = guidance.compose_cfg_vpg(branches, gamma, lam)
            closed = (
                (1 + lam) * (1 + gamma) * l_cg
                - (1 + lam) * gamma * l_ng
                - lam * (1 + gamma) * l_cc
                + lam * gamma * l_nc
            )
            diffs.append(_row_max_abs(sequential - closed))
            kls.append(_row_kls(softmax(sequential), softmax(closed)))
    per_row = shape[:2] + (len(diffs),)
    return (np.stack(diffs, axis=-1).reshape(per_row).tolist(),
            np.stack(kls, axis=-1).reshape(per_row).tolist())


def _row_max_abs(diff: np.ndarray) -> np.ndarray:
    """max |diff| over each (condition, prefix) row of a stack."""
    return np.abs(diff).reshape(diff.shape[0] * diff.shape[1], -1).max(axis=1)


def _row_kls(observed: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """``kl_divergence`` of each (condition, prefix) row of two stacks, bit for bit.

    Summing a row's contiguous trailing axes runs the same pairwise sum as the
    1-D call. A row with an observed zero keeps ``kl_divergence``'s masked
    sum, whose terms pair differently once eight or more remain.
    """
    obs = observed.reshape(observed.shape[0] * observed.shape[1], -1)
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
