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
    ScaleSchedule,
    enumerate_prefix_keys,
    predict_logits,
    prefix_key,
    tabular_from_rows,
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


def fixture_m1() -> TabularModel:
    """Two single-site scales, V=2, C=1, with hand-checkable round numbers."""
    schedule = ScaleSchedule(((1, 1), (1, 1)))
    rows = {
        (0, 1, ()): [0.75, 0.25],
        (0, 2, ((0,),)): [0.6, 0.4],
        (0, 2, ((1,),)): [0.2, 0.8],
    }
    return tabular_from_rows(schedule, 2, 1, rows)


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
        predict_logits(model, condition, key, book=book).values
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
    """Normalized p(r_k|prefix,c) (p(r_k|prefix,c) / p(r_k|prefix))^gamma over maps."""
    key = prefix_key(prefix)
    base = step_map_distribution(model, condition, key, k)
    ref = step_map_distribution(model, NULL_CONDITION, key, k)
    return Distribution(
        base.outcomes, _normalized_power_ratio(base.probs, ref.probs, strength)
    )


def kl_divergence(observed: np.ndarray, oracle: np.ndarray) -> float:
    """KL(observed || oracle), natural log; both strictly positive here."""
    observed = np.asarray(observed, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    mask = observed > 0
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
        return max((r.kl for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return all(r.kl <= self.tolerance for r in self.rows)

    def failures(self) -> list[IdentityRow]:
        return [r for r in self.rows if r.kl > self.tolerance]


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
    """
    rows = []
    sched = model.schedule
    scales = range(1, sched.num_scales + 1)
    l_nc_by_scale = {
        k: np.log(prefix_marginal_sites(model, NULL_CONDITION, k)) for k in scales
    }
    for c in range(model.num_conditions):
        for k in scales:
            marg = prefix_marginal_sites(model, c, k)
            l_cc = np.log(marg)
            l_nc = l_nc_by_scale[k]
            for key in enumerate_prefix_keys(sched, model.vocab, k):
                cond_row = model.row(c, k, key)
                null_row = model.row(NULL_CONDITION, k, key)
                l_cg = np.log(cond_row)
                l_ng = np.log(null_row)
                branches = guidance.BranchLogits(l_cg, l_ng, l_cc, l_nc)
                for gamma in gammas:
                    guided = softmax(guidance.cfg_combine(l_cg, l_ng, gamma))
                    oracle_p = _normalized_power_ratio(cond_row, null_row, gamma)
                    rows.append(
                        IdentityRow(
                            "cfg", c, k, key, gamma, 0.0,
                            float(np.max(np.abs(guided - oracle_p))),
                            kl_divergence(guided, oracle_p),
                        )
                    )
                for lam in lams:
                    guided = softmax(guidance.vpg_combine(l_cg, l_cc, lam))
                    oracle_p = _normalized_power_ratio(cond_row, marg, lam)
                    rows.append(
                        IdentityRow(
                            "vpg", c, k, key, 0.0, lam,
                            float(np.max(np.abs(guided - oracle_p))),
                            kl_divergence(guided, oracle_p),
                        )
                    )
                # Sequential composition vs. its closed-form expansion, with
                # the exact marginals standing in for the corrupted branches.
                for gamma in gammas:
                    for lam in lams:
                        sequential = guidance.compose_cfg_vpg(branches, gamma, lam)
                        closed = (
                            (1 + lam) * (1 + gamma) * l_cg
                            - (1 + lam) * gamma * l_ng
                            - lam * (1 + gamma) * l_cc
                            + lam * gamma * l_nc
                        )
                        rows.append(
                            IdentityRow(
                                "composition", c, k, key, gamma, lam,
                                float(np.max(np.abs(sequential - closed))),
                                kl_divergence(softmax(sequential), softmax(closed)),
                            )
                        )
    return IdentityReport(tuple(rows), tolerance)


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
