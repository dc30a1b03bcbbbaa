"""The stacked identity verifier against the per-row loop it replaced, bit for
bit, and the report's handling of NaN rows."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings

from prefixlab import guidance
from prefixlab.cli import EXIT_IDENTITY, main
from prefixlab.model import (
    NULL_CONDITION,
    PROB_FLOOR,
    build_tabular,
    enumerate_prefix_keys,
    tabular_from_rows,
)
from prefixlab.oracle import (
    IdentityReport,
    IdentityRow,
    kl_divergence,
    prefix_marginal_sites,
    softmax,
    verify_identities,
)
from prefixlab.tokenizer import ScaleSchedule

from tests.test_oracle import small_models


def reference_power_ratio(base, reference, strength):
    weights = base * (base / reference) ** strength
    return weights / weights.sum(axis=-1, keepdims=True)


def reference_verify_identities(
    model,
    tolerance=1e-9,
    gammas=(0.0, 0.5, 1.0, 1.5, 3.0),
    lams=(0.0, 0.5, 1.0, 1.3, 1.8, 2.4, 3.0),
):
    """One softmax and one KL per (condition, scale, prefix, kind, strength)."""
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
                    oracle_p = reference_power_ratio(cond_row, null_row, gamma)
                    rows.append(
                        IdentityRow(
                            "cfg", c, k, key, gamma, 0.0,
                            float(np.max(np.abs(guided - oracle_p))),
                            kl_divergence(guided, oracle_p),
                        )
                    )
                for lam in lams:
                    guided = softmax(guidance.vpg_combine(l_cg, l_cc, lam))
                    oracle_p = reference_power_ratio(cond_row, marg, lam)
                    rows.append(
                        IdentityRow(
                            "vpg", c, k, key, 0.0, lam,
                            float(np.max(np.abs(guided - oracle_p))),
                            kl_divergence(guided, oracle_p),
                        )
                    )
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


def bits(row):
    """Every field of a row, its floats as their IEEE-754 bytes."""
    return (row.kind, row.condition, row.scale, row.prefix, row.gamma, row.lam,
            struct.pack("<dd", row.max_abs_diff, row.kl))


def assert_same_rows(model, **grid):
    ours = verify_identities(model, **grid)
    reference = reference_verify_identities(model, **grid)
    assert len(ours.rows) == len(reference.rows)
    assert [bits(r) for r in ours.rows] == [bits(r) for r in reference.rows]


# The (vocabulary, conditions) pairs of the shipped verify config, in the
# order its models cycle through them.
SHIPPED_PAIRS = [(v, c) for v in (2, 3, 5) for c in (1, 2, 3)]


@pytest.mark.parametrize("seed", range(18))
def test_bench_config_models(seed):
    vocab, conditions = SHIPPED_PAIRS[seed % len(SHIPPED_PAIRS)]
    model = build_tabular(ScaleSchedule(((1, 1), (1, 1))), vocab, conditions, seed)
    assert_same_rows(model)


@given(small_models())
@settings(max_examples=30, deadline=None)
def test_multisite_multicondition_models(model):
    assert_same_rows(model)


def underflowing_model(seed):
    """Random class rows in which each class gives one token no mass, so that
    token is floored to PROB_FLOOR (then renormalized); scale-2 rows have 16
    entries."""
    schedule = ScaleSchedule(((1, 1), (2, 2)))
    rng = np.random.default_rng(seed)
    rows = {}
    for c in (0, 1):
        for k in (1, 2):
            for key in enumerate_prefix_keys(schedule, 4, k):
                weights = rng.dirichlet(np.ones(4), size=schedule.grid(k))
                weights[..., 1 - c] = 0.0
                rows[(c, k, key)] = weights
    return tabular_from_rows(schedule, 4, 2, rows)


@pytest.mark.parametrize("seed", range(5))
def test_underflowed_probabilities_keep_the_masked_sum(seed):
    model = underflowing_model(seed)
    key = ((0,),)
    assert np.all(model.row(0, 2, key)[..., 1] < 1e3 * PROB_FLOOR)
    # At gamma 400 some guided probabilities are exactly 0, and 8 or more
    # entries remain, where the masked sum pairs terms differently.
    l_cg = np.log(model.row(0, 2, key))
    l_ng = np.log(model.row(NULL_CONDITION, 2, key))
    guided = softmax(guidance.cfg_combine(l_cg, l_ng, 400.0))
    assert 0 < np.count_nonzero(guided == 0) <= guided.size - 8
    # The CFG ratio is at most 2, so 2**400 does not overflow; lambda stays
    # small because the VPG ratio is not bounded.
    assert_same_rows(model, gammas=(0.0, 1.0, 400.0), lams=(0.0, 1.0, 3.0))


def kl_row(kl):
    return IdentityRow("cfg", 0, 1, (), 0.0, 0.0, 0.0, kl)


class TestNaNRows:
    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
    def test_report_fails_nan_rows_in_any_order(self, order):
        kls = [1e-17, math.nan, 2e-17]
        report = IdentityReport(tuple(kl_row(kls[i]) for i in order), tolerance=1e-9)
        assert math.isnan(report.max_kl)
        assert not report.passed
        assert [r.kl for r in report.failures()] == [r.kl for r in report.rows
                                                    if math.isnan(r.kl)]

    def test_finite_rows_unchanged(self):
        report = IdentityReport((kl_row(-1e-18), kl_row(3e-17)), tolerance=1e-9)
        assert report.max_kl == 3e-17
        assert report.passed and report.failures() == []
        assert IdentityReport((), 1e-9).max_kl == 0.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_overflowing_strength_gives_failing_nan_rows(self):
        model = build_tabular(ScaleSchedule(((1, 1), (1, 1))), 2, 2, seed=1)
        report = verify_identities(model, gammas=(0.0, 1000.0), lams=(0.0, 1000.0))
        nan_rows = [r for r in report.rows if math.isnan(r.kl)]
        assert nan_rows
        assert math.isnan(report.max_kl)
        assert report.failures() == nan_rows

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_verify_command_lists_nan_rows_and_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"verify": {
            "models": 9, "gammas": [0.0, 1000.0], "lambdas": [0.0, 1000.0]}}))
        code = main(["verify", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == EXIT_IDENTITY
        assert "max KL nan," in out.splitlines()[0]
        assert "all identities hold" not in out
        fails = [line for line in out.splitlines() if line.startswith("  FAIL")]
        assert fails and all(line.endswith("KL=nan") for line in fails)
