"""The stacked identity verifier against the per-row loop it replaced, bit for
bit, its one pass per grid shape, its memory bound, the rows its columnar
report builds, the report's handling of NaN rows, and several models
stacked in one call against their one-model reports."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixlab import cli, guidance, oracle
from prefixlab.cli import EXIT_IDENTITY, main
from prefixlab.errors import InvalidInputError
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
    VerifySpec,
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
    lambdas=(0.0, 0.5, 1.0, 1.3, 1.8, 2.4, 3.0),
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
                    guided = softmax(guidance.extrapolate(l_cg, l_ng, gamma))
                    oracle_p = reference_power_ratio(cond_row, null_row, gamma)
                    rows.append(
                        IdentityRow(
                            "cfg", c, k, key, gamma, 0.0,
                            float(np.max(np.abs(guided - oracle_p))),
                            kl_divergence(guided, oracle_p),
                        )
                    )
                for lam in lambdas:
                    guided = softmax(guidance.extrapolate(l_cg, l_cc, lam))
                    oracle_p = reference_power_ratio(cond_row, marg, lam)
                    rows.append(
                        IdentityRow(
                            "vpg", c, k, key, 0.0, lam,
                            float(np.max(np.abs(guided - oracle_p))),
                            kl_divergence(guided, oracle_p),
                        )
                    )
                for gamma in gammas:
                    for lam in lambdas:
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
    return tuple(rows)


def bits(row):
    """Every field of a row, its floats as their IEEE-754 bytes."""
    return (row.kind, row.condition, row.scale, row.prefix, row.gamma, row.lam,
            struct.pack("<dd", row.max_abs_diff, row.kl))


def assert_same_rows(model, **grid):
    ours = verify_identities([model], VerifySpec(**grid))
    reference = reference_verify_identities(model, **grid)
    assert len(ours.rows) == len(reference)
    assert [bits(r) for r in ours.rows] == [bits(r) for r in reference]


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


# Schedules whose grids repeat, so that one pass checks several scales: next
# to each other in the first, apart in the second (scales 1 and 3 share (1, 2)).
REPEATED_GRIDS = [((1, 1), (1, 1), (2, 2), (2, 2)), ((1, 2), (2, 1), (1, 2), (2, 2))]


@pytest.mark.parametrize("grid", [
    {"gammas": ()},
    {"lambdas": ()},
    {"gammas": (), "lambdas": ()},
])
@pytest.mark.parametrize("schedule", [((1, 1), (1, 1)), ((1, 1), (1, 2), (2, 2))]
                         + REPEATED_GRIDS)
def test_empty_strength_axis(schedule, grid):
    model = build_tabular(ScaleSchedule(schedule), 2, 2, seed=4)
    assert_same_rows(model, **grid)


# Strength tuples that always hold 0.5 and 2.0, where NumPy's scalar ``**``
# takes its sqrt and square fast paths, in any order and with repeats.
strength_tuples = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
              st.floats(0.0, 4.0, allow_nan=False)),
    max_size=3,
).flatmap(lambda extra: st.permutations([0.5, 2.0] + extra)).map(tuple)


@given(small_models(), strength_tuples, strength_tuples)
@settings(max_examples=30, deadline=None)
def test_strengths_with_power_fast_paths(model, gammas, lambdas):
    assert_same_rows(model, gammas=gammas, lambdas=lambdas)


@pytest.mark.parametrize("strengths_per_block", [1, 2, 3, 6])
@pytest.mark.parametrize("schedule", [((1, 1), (1, 1)), ((1, 1), (1, 2), (2, 2))]
                         + REPEATED_GRIDS)
def test_every_block_size_gives_the_same_rows(monkeypatch, schedule, strengths_per_block):
    # Budget the largest scale's (C, P, h, w, V) stack at this many
    # strengths; a pass over smaller scales fits more in a block, a pass over
    # several scales fewer. Four scales at V=3 would be 729 last-scale
    # prefixes, too many for the per-row reference, so they run at V=2.
    vocab = 3 if len(schedule) < 4 else 2
    model = build_tabular(ScaleSchedule(schedule), vocab, 2, seed=9)
    k = model.schedule.num_scales
    per_strength = (model.num_conditions * len(enumerate_prefix_keys(model.schedule, vocab, k))
                    * int(np.prod(model.schedule.grid(k))) * vocab)
    monkeypatch.setattr(oracle, "_STACK_ELEMENTS", strengths_per_block * per_strength)
    assert_same_rows(model)


def test_strength_blocks_bound_memory():
    # Scale 2 stacks 2 conditions x 16 prefixes x 64 sites x V=16 = 32,768
    # elements per strength, so its 35 compositions are 17.5 blocks; stacked
    # whole they peak near 57 MiB, in blocks near 4.4 MiB.
    model = build_tabular(ScaleSchedule(((1, 1), (8, 8))), 16, 2, seed=1)
    assert 35 * 2 * 16 * 64 * 16 > 16 * oracle._STACK_ELEMENTS
    spec = VerifySpec()
    verify_identities([model], spec)  # fills the model's marginal memo
    tracemalloc.start()
    try:
        verify_identities([model], spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = oracle._STACK_ELEMENTS * np.dtype(float).itemsize
    assert peak <= 16 * block_bytes


@pytest.mark.parametrize("schedule, passes", [
    (((1, 1), (1, 1)), 1),
    (((1, 1), (1, 2), (2, 2)), 3),
] + list(zip(REPEATED_GRIDS, [2, 3])))
def test_one_pass_per_grid_shape(monkeypatch, schedule, passes):
    calls = []
    check_grid = oracle._check_grid

    def counted(model, scales, *args):
        calls.append([k for k, _ in scales])
        return check_grid(model, scales, *args)

    monkeypatch.setattr(oracle, "_check_grid", counted)
    model = build_tabular(ScaleSchedule(schedule), 2, 2, seed=3)
    verify_identities([model], VerifySpec(gammas=(1.0,), lambdas=(1.0,)))
    assert len(calls) == passes
    assert sorted(k for scales in calls for k in scales) == list(range(1, len(schedule) + 1))


def count_built_rows(monkeypatch):
    """Record every ``IdentityRow`` the oracle builds from here on."""
    built = []

    def row(*fields):
        built.append(fields)
        return IdentityRow(*fields)

    monkeypatch.setattr(oracle, "IdentityRow", row)
    return built


def test_passing_report_builds_no_rows(monkeypatch):
    built = count_built_rows(monkeypatch)
    model = build_tabular(ScaleSchedule(((1, 1), (1, 2), (2, 2))), 2, 2, seed=5)
    report = verify_identities([model], VerifySpec())
    assert report.max_kl < 1e-12
    assert report.failures() == []
    assert built == []
    # Reading the rows builds each one once.
    assert len(report.rows) == report.kl.size == len(built)
    assert report.rows == report.rows and len(built) == report.kl.size


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
    guided = softmax(guidance.extrapolate(l_cg, l_ng, 400.0))
    assert 0 < np.count_nonzero(guided == 0) <= guided.size - 8
    # The CFG ratio is at most 2, so 2**400 does not overflow; lambda stays
    # small because the VPG ratio is not bounded.
    assert_same_rows(model, gammas=(0.0, 1.0, 400.0), lambdas=(0.0, 1.0, 3.0))


def kl_row(kl):
    return IdentityRow("cfg", 0, 1, (), 0.0, 0.0, 0.0, kl)


def report_of(rows, tolerance):
    """A report over hand-made rows, its columns read from them."""
    return IdentityReport(np.array([r.max_abs_diff for r in rows], dtype=float),
                          np.array([r.kl for r in rows], dtype=float),
                          tolerance, rows.__getitem__)


class TestNaNRows:
    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 3, 2), (3, 2, 1, 0)])
    def test_report_fails_nan_rows_in_any_order(self, order):
        # Rows 1 (NaN) and 3 (between the tolerance and ten times it) fail.
        kls = [1e-17, math.nan, 2e-17, 5e-9]
        rows = tuple(kl_row(kls[i]) for i in order)
        report = report_of(rows, 1e-9)
        assert math.isnan(report.max_kl)
        assert report.failures() != []
        assert report.failures() == [row for row, i in zip(rows, order) if i in (1, 3)]

    def test_finite_rows_unchanged(self):
        report = report_of((kl_row(-1e-18), kl_row(3e-17)), 1e-9)
        assert report.max_kl == 3e-17
        assert report.failures() == []
        assert report_of((), 1e-9).max_kl == 0.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_failures_build_only_the_failing_rows(self, monkeypatch):
        built = count_built_rows(monkeypatch)
        model = build_tabular(ScaleSchedule(((1, 1), (1, 1))), 2, 2, seed=1)
        report = verify_identities(
            [model], VerifySpec(gammas=(0.0, 1000.0), lambdas=(0.0, 1000.0))
        )
        failed = report.failures()
        assert failed and all(math.isnan(r.kl) for r in failed)
        assert len(built) == len(failed) < report.kl.size

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_overflowing_strength_gives_failing_nan_rows(self):
        model = build_tabular(ScaleSchedule(((1, 1), (1, 1))), 2, 2, seed=1)
        report = verify_identities(
            [model], VerifySpec(gammas=(0.0, 1000.0), lambdas=(0.0, 1000.0))
        )
        nan_rows = [r for r in report.rows if math.isnan(r.kl)]
        assert nan_rows
        assert math.isnan(report.max_kl)
        assert report.failures() == nan_rows

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_verify_command_lists_nan_rows_and_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        # Model seed 0: the verify command seeds model i with model.seed + i.
        path.write_text(json.dumps({"model": {"seed": 0}, "verify": {
            "models": 9, "gammas": [0.0, 1000.0], "lambdas": [0.0, 1000.0]}}))
        code = main(["verify", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == EXIT_IDENTITY
        lines = out.splitlines()
        assert "max KL nan," in lines[0]
        assert lines[1] == "verify: FAIL 30 identity rows in 7 of 9 models"
        assert "all identities hold" not in out
        fails = [line for line in lines if line.startswith("  FAIL")]
        assert len(fails) == 10 and all(line.endswith("KL=nan") for line in fails)


def test_verify_command_builds_only_the_written_rows(monkeypatch, tmp_path, capsys):
    # Only model 0's rows are written; every other model is counted from
    # its KL column.
    built = count_built_rows(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"verify": {"models": 6}}))
    assert main(["verify", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "identity_report.csv") as fh:
        written = len(fh.readlines()) - 1
    assert 0 < written == len(built)
    assert "all identities hold" in capsys.readouterr().out


@st.composite
def model_runs(draw):
    """One to four models of one multi-site schedule and vocabulary, with
    mixed condition counts, as ``verify`` stacks them."""
    first = draw(small_models())
    rest = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2**16)), max_size=3))
    return [first] + [build_tabular(first.schedule, first.vocab, c, seed) for c, seed in rest]


def float_bits(value):
    return struct.pack("<d", value)


def assert_split_matches_one_model_reports(models, spec):
    """The stacked report, split per model, equals each model's own report
    bit for bit: columns, rows, failures and max KL."""
    stacked = verify_identities(models, spec)
    parts = stacked.split()
    assert len(parts) == len(models)
    for model, part in zip(models, parts):
        alone = verify_identities([model], spec)
        assert part.max_abs_diff.tobytes() == alone.max_abs_diff.tobytes()
        assert part.kl.tobytes() == alone.kl.tobytes()
        assert np.shares_memory(part.kl, stacked.kl)
        assert [bits(r) for r in part.rows] == [bits(r) for r in alone.rows]
        assert [bits(r) for r in part.failures()] == [bits(r) for r in alone.failures()]
        assert float_bits(part.max_kl) == float_bits(alone.max_kl)
    # Model by model: the stacked rows are the split reports' rows in order.
    assert [bits(r) for r in stacked.rows] == [bits(r) for p in parts for r in p.rows]


@given(model_runs(), st.sampled_from([1e-9, 0.0]), st.sampled_from([None, 1, 3]))
@settings(max_examples=40, deadline=None)
def test_stacked_models_split_into_their_own_reports(models, tolerance, budget):
    # A budget of ``budget`` largest-grid conditions splits the run across
    # passes (1: every pass one model, each larger than the budget alone);
    # None keeps the shipped budget, one pass per grid.
    spec = VerifySpec(tolerance=tolerance)
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            model = models[0]
            k = model.schedule.num_scales
            per_condition = (len(enumerate_prefix_keys(model.schedule, model.vocab, k))
                             * int(np.prod(model.schedule.grid(k))) * model.vocab)
            patch.setattr(oracle, "_STACK_ELEMENTS", budget * per_condition)
        assert_split_matches_one_model_reports(models, spec)


def test_each_model_reads_its_own_null_rows():
    # A one-condition model's null rows are its condition rows; stacked
    # after a two-condition model, its CFG rows must not read that model's.
    schedule = ScaleSchedule(((1, 1), (1, 2)))
    models = [build_tabular(schedule, 2, c, seed) for c, seed in ((2, 0), (1, 1), (3, 2))]
    assert_split_matches_one_model_reports(models, VerifySpec())


@pytest.mark.parametrize("budget_conditions, passes", [(None, [[2, 1, 3]]),
                                                       (3, [[2, 1], [3]]),
                                                       (1, [[2], [1], [3]])])
def test_passes_stack_consecutive_models_within_the_budget(monkeypatch, budget_conditions,
                                                           passes):
    schedule = ScaleSchedule(((1, 1), (1, 1)))
    models = [build_tabular(schedule, 3, c, seed) for seed, c in enumerate((2, 1, 3))]
    per_condition = 4 * 3  # one grid: 1 + 3 prefixes of one site, V = 3
    if budget_conditions is not None:
        monkeypatch.setattr(oracle, "_STACK_ELEMENTS", budget_conditions * per_condition)
    calls = []
    check_grid = oracle._check_grid

    def counted(run, scales, *args):
        calls.append([m.num_conditions for m in run])
        return check_grid(run, scales, *args)

    monkeypatch.setattr(oracle, "_check_grid", counted)
    verify_identities(models, VerifySpec())
    assert calls == passes


def test_models_checked_together_share_schedule_and_vocabulary():
    a = build_tabular(ScaleSchedule(((1, 1), (1, 1))), 2, 1, seed=0)
    for other in (build_tabular(ScaleSchedule(((1, 1), (1, 2))), 2, 1, seed=0),
                  build_tabular(ScaleSchedule(((1, 1), (1, 1))), 3, 1, seed=0)):
        with pytest.raises(InvalidInputError, match="share a schedule and vocabulary"):
            verify_identities([a, other], VerifySpec())


@pytest.mark.parametrize("models, grid", [(0, {}), (2, {"gammas": (), "lambdas": ()})])
def test_nothing_to_check_splits_into_empty_reports(models, grid):
    run = [build_tabular(ScaleSchedule(((1, 1), (1, 1))), 2, 2, seed) for seed in range(models)]
    report = verify_identities(run, VerifySpec(**grid))
    assert report.kl.size == 0
    assert [r.kl.size for r in report.split()] == [0] * models


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_verify_command_lists_failures_in_model_order(monkeypatch, tmp_path, capsys):
    # Runs of two models (V=2 then V=3, C in {1, 2}); models 1, 3, 4, 5, 6
    # and 7 fail, so the FAIL lines span every run.
    verify = {"models": 8, "vocab_grid": [2, 3], "condition_grid": [1, 2],
              "gammas": [0.0, 1000.0], "lambdas": [0.0, 1000.0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"seed": 0}, "verify": verify}))
    runs = []
    stacked = cli.verify_identities

    def counted(models, spec):
        runs.append([(m.vocab, m.num_conditions) for m in models])
        return stacked(models, spec)

    monkeypatch.setattr(cli, "verify_identities", counted)
    assert main(["verify", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")]) == EXIT_IDENTITY
    assert runs == [[(2, 1), (2, 2)], [(3, 1), (3, 2)]] * 2
    # The lines the one-model reports give, model by model.
    spec = VerifySpec(gammas=(0.0, 1000.0), lambdas=(0.0, 1000.0))
    combos = [(2, 1), (2, 2), (3, 1), (3, 2)]
    expected, failed_rows, failed_models = [], 0, 0
    for i in range(8):
        vocab, conds = combos[i % 4]
        failed = verify_identities([build_tabular(ScaleSchedule(((1, 1), (1, 1))), vocab,
                                                  conds, seed=i)], spec).failures()
        failed_rows += len(failed)
        failed_models += bool(failed)
        expected += [
            f"  FAIL model {i} (V={vocab}, C={conds}): {row.kind} c={row.condition} "
            f"k={row.scale} prefix={row.prefix} gamma={row.gamma} lambda={row.lam} "
            f"KL={row.kl:.3e}" for row in failed[:5]]
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"verify: FAIL {failed_rows} identity rows in {failed_models} of 8 models"
    assert lines[2:] == expected[:10]
    shown = [int(line.split()[2]) for line in lines[2:]]
    assert shown == sorted(shown) and {i // 2 for i in shown} == {0, 1, 2, 3}
