"""Guidance algebra and per-step branch orchestration."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prefixlab.corruption import CorruptionVariant, apply_corruption, plan_corruption
from prefixlab.errors import (
    GuidanceConfigError,
    IllDefinedLawError,
    InconsistentPlanError,
    InvalidInputError,
    MissingBranchError,
    MissingRowError,
    TooLargeError,
)
from prefixlab.guidance import (
    BranchLogits,
    GuidanceConfig,
    compose_cfg_vpg,
    extrapolate,
    guided_step,
)
from prefixlab.model import (
    NULL_CONDITION,
    PREFIX_STATE_CAP,
    SignatureSpec,
    TokenMap,
    build_tabular,
    context_signature,
    enumerate_prefix_keys,
    fit_count_model,
    predict_logits,
    prefix_maps,
    scale_bins,
)
from prefixlab.oracle import enumerate_prefixes, prefix_marginal_sites, softmax
from prefixlab.sampler import SamplerConfig, rollouts
from prefixlab.tokenizer import Codebook, ScaleSchedule
from tests.conftest import make_corpus, multisite_schedules, uniform_maps
from tests.test_sampler import BRANCHES, same_bits


def corrupted_logits(model, condition, prefix, plan, book):
    """The scale-k logits of ``prefix`` corrupted under ``plan``, computed
    apart from ``guided_step``: a uniform-prefix plan's token maps embedded
    and signed in place of the prefix, any other plan's embedding
    corrupted and signed; then the row is read."""
    if plan.variant is CorruptionVariant.UNIFORM_PREFIX:
        signature = model.embed([prefix_maps(plan.uniform_tokens, model.schedule)])
        return model.logits(condition, len(prefix) + 1, signature.signature[0])
    embedding = model.embed([prefix]).embedding
    corrupted = apply_corruption(embedding, [plan], book, model.schedule, model.params)
    signature = context_signature(corrupted, model.thresholds)[0]
    return model.logits(condition, embedding.step, signature)


# The variants that act on prefix embeddings only, and those with a token
# reading, which a tabular step can contrast under.
EMBEDDING_ONLY = [CorruptionVariant.SAME_SCALE_POSITION, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING]
TOKEN_VARIANTS = [CorruptionVariant.SAME_SCALE_TOKEN, CorruptionVariant.RANDOM_CODEBOOK,
                  CorruptionVariant.UNIFORM_PREFIX]


def hand_corrupted_key(prefix, plan, schedule):
    """The prefix key of the token maps ``prefix`` corrupted under a token
    plan, each selected site of a copy of its grid rewritten in (row,
    column) place: the reference a tabular corrupted row is read at."""
    if plan.variant is CorruptionVariant.UNIFORM_PREFIX:
        return tuple(m.key() for m in prefix_maps(plan.uniform_tokens, schedule))
    grids = [m.ids.copy() for m in prefix]
    for n, ((j, u), (_, du)) in enumerate(zip(plan.selected, plan.donors)):
        w = schedule.grid(j)[1]
        grids[j - 1][u // w, u % w] = (
            prefix[j - 1].ids[du // w, du % w]
            if plan.variant is CorruptionVariant.SAME_SCALE_TOKEN else plan.code_draws[n][1])
    return tuple(tuple(g.ravel().tolist()) for g in grids)


@pytest.fixture(scope="module")
def deep_count():
    """A count model on ((1,1),(2,2),(2,2)), its codebook and corpus: a
    2-scale prefix has a multi-site scale, where every variant can move the
    embedding."""
    schedule = ScaleSchedule(((1, 1), (2, 2), (2, 2)))
    book = Codebook.seeded(3, 3, 2, seed=7)
    corpus = make_corpus(schedule, book, num_conditions=2, count=16, seed=5)
    model = fit_count_model(
        corpus, schedule, book, vocab=3, num_conditions=2,
        alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
    )
    return model, book, corpus


class TestCombiners:
    def test_cfg_formula(self):
        cond = np.asarray([1.0, 2.0])
        null = np.asarray([0.5, 0.5])
        np.testing.assert_allclose(
            extrapolate(cond, null, 2.0), 3.0 * cond - 2.0 * null
        )

    def test_vpg_formula(self):
        gen = np.asarray([0.0, 1.0])
        corr = np.asarray([1.0, 0.0])
        np.testing.assert_allclose(
            extrapolate(gen, corr, 0.5), 1.5 * gen - 0.5 * corr
        )

    def test_zero_strength_passthrough(self):
        x = np.asarray([3.0, -1.0])
        y = np.asarray([9.0, 9.0])
        np.testing.assert_allclose(extrapolate(x, y, 0.0), x)

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            extrapolate(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(InvalidInputError):
            extrapolate(np.zeros((1, 2)), np.zeros((2, 1)), 1.0)


class TestComposition:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = BranchLogits(*(rng.normal(size=(1, 1, 4)) for _ in range(4)))
            for gamma in (0.0, 1.5):
                for lam in (0.0, 0.2, 1.0):
                    closed = (
                        (1 + lam) * (1 + gamma) * b.cond_gen
                        - (1 + lam) * gamma * b.null_gen
                        - lam * (1 + gamma) * b.cond_corr
                        + lam * gamma * b.null_corr
                    )
                    np.testing.assert_allclose(
                        compose_cfg_vpg(b, gamma, lam), closed, atol=1e-12
                    )

    def test_missing_branches_raise(self):
        only_cond = BranchLogits(np.zeros((1, 1, 2)))
        with pytest.raises(MissingBranchError):
            compose_cfg_vpg(only_cond, gamma=1.0, lam=0.0)
        with pytest.raises(MissingBranchError):
            compose_cfg_vpg(only_cond, gamma=0.0, lam=1.0)
        no_null_corr = BranchLogits(
            np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), np.zeros((1, 1, 2))
        )
        with pytest.raises(MissingBranchError):
            compose_cfg_vpg(no_null_corr, gamma=1.0, lam=1.0)

    @pytest.mark.parametrize("gammas", [(0.0,), (0.0, 0.0, 0.0), (0.0, 1.5, 0.0, 0.5),
                                        (2.0, 0.5, 3.0)])
    @pytest.mark.parametrize("lams", ["zero", "one", "column"])
    def test_gamma_column_is_one_scalar_call_per_row(self, gammas, lams):
        # A gamma column gives each row the bits of that row's own scalar
        # call, and keeps its strength axis where every gamma (and lam) is 0.
        rng = np.random.default_rng(3)
        b = BranchLogits(*(rng.normal(size=(2, 3, 1, 2, 4)) for _ in range(4)))
        rows = [(g, {"zero": 0.0, "one": 1.3, "column": (0.0, 0.7)[i % 2]}[lams])
                for i, g in enumerate(gammas)]

        def column(values):
            return np.array(values).reshape((-1,) + (1,) * 5)

        gamma = column([g for g, _ in rows])
        lam = column([s for _, s in rows]) if lams == "column" else rows[0][1]
        stacked = compose_cfg_vpg(b, gamma, lam)
        expected = np.stack([compose_cfg_vpg(b, g, s) for g, s in rows])
        assert stacked.shape == expected.shape == (len(rows), 2, 3, 1, 2, 4)
        assert stacked.tobytes() == expected.tobytes()

    def test_unguided_passthrough(self):
        b = BranchLogits(np.asarray([[[1.0, 2.0]]]))
        np.testing.assert_allclose(compose_cfg_vpg(b, 0.0, 0.0), b.cond_gen)


class TestGuidanceConfig:
    def test_rejects_negative_strengths(self):
        with pytest.raises(GuidanceConfigError):
            GuidanceConfig(gamma=-0.1)
        with pytest.raises(GuidanceConfigError):
            GuidanceConfig(lam=-1.0)

    @pytest.mark.parametrize("field", ["gamma", "lam", "fraction"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(GuidanceConfigError, match=field):
            GuidanceConfig(**{field: value})

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_rejects_fraction_outside_unit_interval(self, fraction):
        # Rejected when built, not first at a scale whose step draws a plan.
        with pytest.raises(GuidanceConfigError, match="fraction"):
            GuidanceConfig(lam=1.0, fraction=fraction, reference="corrupted")

    def test_rejects_unknown_reference(self):
        with pytest.raises(GuidanceConfigError):
            GuidanceConfig(reference="weird")

    def test_scale_mask_membership(self):
        cfg = GuidanceConfig(scale_mask=(2, 3))
        assert not cfg.masked_in(1)
        assert cfg.masked_in(2)
        assert GuidanceConfig().masked_in(7)

    @pytest.mark.parametrize("mask", [{1.5, 2.7}, {2.0}, {True}, (2, np.float64(3))])
    def test_scale_mask_rejects_non_integers(self, mask):
        with pytest.raises(GuidanceConfigError, match="scale_mask"):
            GuidanceConfig(scale_mask=mask)

    def test_scale_mask_accepts_numpy_integers(self):
        assert GuidanceConfig(scale_mask={np.int64(2), np.uint8(3)}).scale_mask == {2, 3}


class TestGuidedStepTabular:
    def test_exact_marginal_matches_augmented_law(self, m1):
        config = GuidanceConfig(lam=1.0, reference="exact-marginal")
        step = guided_step(m1, 0, [TokenMap(1, np.asarray([[0]]))], config)
        probs = softmax(step.logits).reshape(-1)
        np.testing.assert_allclose(probs, [0.6923, 0.3077], atol=1e-4)
        assert step.evaluations == 2

    def test_cfg_and_exact_marginal_contrast_match_the_four_term_form(self):
        # Multi-site scales and three conditions. The two reference branches
        # are the condition's and the null condition's exact per-site
        # marginals, summed here over the enumerated prefixes.
        model = build_tabular(ScaleSchedule(((1, 1), (1, 2), (2, 2))), 2, 3, seed=4)
        gamma, lam = 1.5, 0.8
        config = GuidanceConfig(gamma=gamma, lam=lam, reference="exact-marginal")

        def log_marginal(condition, k):
            pairs = enumerate_prefixes(model, condition, k)
            return np.log(sum(p * model.row(condition, k, key) for key, p in pairs))

        for c in range(model.num_conditions):
            for k in (2, 3):
                l_cc, l_nc = log_marginal(c, k), log_marginal(NULL_CONDITION, k)
                for key in enumerate_prefix_keys(model.schedule, model.vocab, k):
                    l_cg = np.log(model.row(c, k, key))
                    l_ng = np.log(model.row(NULL_CONDITION, k, key))
                    closed = (
                        (1 + lam) * (1 + gamma) * l_cg
                        - (1 + lam) * gamma * l_ng
                        - lam * (1 + gamma) * l_cc
                        + lam * gamma * l_nc
                    )
                    step = guided_step(model, c, prefix_maps(key, model.schedule), config)
                    np.testing.assert_allclose(step.logits, closed, rtol=0, atol=1e-12)

    def test_branch_evaluation_counts(self, small_tabular):
        prefix = [TokenMap(1, np.asarray([[1]]))]
        cases = [
            (GuidanceConfig(), 1),
            (GuidanceConfig(gamma=1.0), 2),
            (GuidanceConfig(lam=1.0, reference="exact-marginal"), 2),
            (GuidanceConfig(gamma=1.0, lam=1.0, reference="exact-marginal"), 4),
        ]
        for config, expected in cases:
            step = guided_step(small_tabular, 0, prefix, config)
            assert step.evaluations == expected

    def test_first_scale_contrast_is_inert(self, small_tabular):
        config = GuidanceConfig(lam=2.0, reference="exact-marginal")
        step = guided_step(small_tabular, 0, [], config)
        assert step.evaluations == 1
        np.testing.assert_allclose(
            step.logits, np.log(small_tabular.row(0, 1, ()))
        )

    def test_masked_out_scale_skips_contrast(self, small_tabular):
        prefix = [TokenMap(1, np.asarray([[0]]))]
        config = GuidanceConfig(
            lam=1.0, scale_mask=(1,), reference="exact-marginal"
        )
        step = guided_step(small_tabular, 0, prefix, config)
        assert step.evaluations == 1
        assert step.branches.cond_corr is None

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    @pytest.mark.parametrize("variant", EMBEDDING_ONLY)
    def test_corrupted_reference_rejects_tabular(self, small_tabular, variant,
                                                 fraction):
        # A tabular stack has no embedding, so a variant that corrupts
        # embeddings only has no reading on it. A contrasting step raises
        # naming it, whether or not it draws a plan (at n_p 0 none is drawn).
        prefix = [TokenMap(1, np.asarray([[0]]))]
        config = GuidanceConfig(lam=1.0, fraction=fraction, variant=variant,
                                reference="corrupted")
        plan = plan_corruption(
            small_tabular.schedule, 2, fraction, variant, 0, small_tabular.vocab) if (
            config.draws_plan(2, small_tabular.schedule)) else None
        with pytest.raises(GuidanceConfigError, match=f"the {variant.value} variant"):
            guided_step(small_tabular, 0, prefix, config, plan=plan)
        # Without a contrast the variant is not read.
        step = guided_step(small_tabular, 0, prefix, replace(config, lam=0.0))
        assert step.branches.cond_corr is None

    @given(st.sampled_from(TOKEN_VARIANTS), st.sampled_from([0.2, 0.5, 1.0]),
           st.integers(2, 3), st.sampled_from([0.0, 1.0]), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_corrupted_row_is_the_row_at_the_corrupted_key(
        self, multisite_tabular, multisite_book, variant, fraction, k, gamma, seed
    ):
        # The fixtures are only read: the model's marginal memo is not used.
        model, schedule = multisite_tabular, multisite_tabular.schedule
        rng = np.random.default_rng(seed)
        prefix = [TokenMap(j, rng.integers(0, 4, schedule.grid(j))) for j in range(1, k)]
        plan = plan_corruption(schedule, k, fraction, variant, seed, multisite_book.vocab)
        config = GuidanceConfig(gamma=gamma, lam=1.0, fraction=fraction, variant=variant,
                                reference="corrupted")
        step = guided_step(model, 1, prefix, config, plan=plan)
        key = hand_corrupted_key(prefix, plan, schedule)
        assert step.plans == (plan,)
        assert np.array_equal(step.branches.cond_corr, np.log(model.row(1, k, key)))
        if gamma:
            assert np.array_equal(step.branches.null_corr,
                                  np.log(model.row(NULL_CONDITION, k, key)))
        clean = tuple(m.key() for m in prefix)
        assert np.array_equal(step.branches.cond_gen, np.log(model.row(1, k, clean)))

    @pytest.mark.parametrize("kind, variant", [
        *(("tabular", v) for v in TOKEN_VARIANTS[:2]),
        *(("count", v) for v in CorruptionVariant if v is not CorruptionVariant.UNIFORM_PREFIX),
    ])
    def test_step_that_selects_no_site_has_the_clean_pair(
        self, kind, variant, multisite_tabular, multisite_count
    ):
        # At n_p 0 a site-selecting variant draws no plan, on either kind,
        # and the corrupted pair is the clean pair.
        model = multisite_tabular if kind == "tabular" else multisite_count
        prefix = uniform_maps(model.schedule, 4, seed=3)[:2]
        config = GuidanceConfig(gamma=1.0, lam=1.0, fraction=0.0, variant=variant,
                                reference="corrupted")
        assert not config.draws_plan(3, model.schedule)
        step = guided_step(model, 0, prefix, config)
        b = step.branches
        assert step.plans == (None,) and step.evaluations == 4
        assert np.array_equal(b.cond_corr, b.cond_gen)
        assert np.array_equal(b.null_corr, b.null_gen)


class TestGuidedStepCount:
    def test_corrupted_branch_counts(self, deep_count, monkeypatch):
        # The clean embedding's two prefix scales are binned once, however
        # many branches read it. A corrupted branch signs its corrupted
        # prefix in full, so a drawn plan re-bins both scales, however many
        # sites it selects; a step that draws no plan (0.05 * 5 prefix sites
        # rounds to 0) re-bins none.
        model, book, corpus = deep_count
        binned = []
        monkeypatch.setattr(
            "prefixlab.model.scale_bins",
            lambda grid, thresholds: binned.append(grid.shape) or scale_bins(grid, thresholds),
        )
        prefix = corpus[0][1][:2]
        uniform = CorruptionVariant.UNIFORM_PREFIX

        def corrupted(gamma, fraction, variant=CorruptionVariant.SAME_SCALE_FULL_EMBEDDING):
            return GuidanceConfig(gamma=gamma, lam=0.5, fraction=fraction, variant=variant,
                                  reference="corrupted")

        cases = [
            (GuidanceConfig(), 1, 0),
            (GuidanceConfig(gamma=1.0), 2, 0),
            (corrupted(0.0, 0.2), 2, 2),
            (corrupted(1.0, 0.2), 4, 2),
            (corrupted(1.0, 1.0), 4, 2),
            (corrupted(1.0, 0.05), 4, 0),
            (corrupted(1.0, 0.05, uniform), 4, 2),
        ]
        clean = predict_logits(model, 0, prefix)
        for config, expected, rebinned in cases:
            plan = plan_corruption(
                model.schedule, 3, config.fraction, config.variant, 0, book.vocab
            ) if config.draws_plan(3, model.schedule) else None
            binned.clear()
            step = guided_step(model, 0, prefix, config, plan=plan)
            assert step.evaluations == expected
            assert len(binned) == len(prefix) + rebinned
            assert step.plans[0] is plan
            assert np.array_equal(step.branches.cond_gen, clean)

    @pytest.mark.parametrize("variant", list(CorruptionVariant))
    def test_corrupted_branch_needs_a_plan_and_draws_nothing(
        self, small_count, small_book, variant, monkeypatch
    ):
        # The step draws no plan of its own: without one it raises, and with
        # one it seeds no generator.
        prefix = [TokenMap(1, np.asarray([[1]]))]
        config = GuidanceConfig(lam=1.0, fraction=1.0, variant=variant, reference="corrupted")
        plan = plan_corruption(small_count.schedule, 2, 1.0, variant, seed=0,
                               vocab=small_book.vocab)
        seeded = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: seeded.append(seed))
        with pytest.raises(IllDefinedLawError, match="scale 2 needs a plan"):
            guided_step(small_count, 0, prefix, config)
        step = guided_step(small_count, 0, prefix, config, plan=plan)
        assert step.plans == (plan,)
        assert seeded == []

    @pytest.mark.parametrize("condition", [7, -1])
    def test_unknown_condition_raises_for_both_model_kinds(
        self, condition, small_tabular, small_count
    ):
        prefix = [TokenMap(1, np.asarray([[1]]))]
        config = GuidanceConfig(gamma=1.0)
        for model in (small_tabular, small_count):
            with pytest.raises(MissingRowError, match=f"condition {condition}"):
                guided_step(model, condition, prefix, config)

    @pytest.mark.parametrize("gamma, lam", [(0.0, 1.5), (1.0, 0.5), (2.0, 2.0)])
    def test_exact_marginal_step_is_the_four_term_form(self, deep_count, gamma, lam):
        # The count model's own exact prefix marginals stand in for the
        # corrupted branches.
        model, _, corpus = deep_count
        prefix = corpus[2][1][:2]
        step = guided_step(model, 1, prefix, GuidanceConfig(gamma=gamma, lam=lam))
        signature = model.embed([prefix]).signature
        l_cg, l_ng = (model.branch_logits(c, 3, signature)[0] for c in (1, NULL_CONDITION))
        l_cc, l_nc = (np.log(prefix_marginal_sites(model, c, 3))
                      for c in (1, NULL_CONDITION))
        four_term = ((1 + lam) * (1 + gamma) * l_cg - (1 + lam) * gamma * l_ng
                     - lam * (1 + gamma) * l_cc + lam * gamma * l_nc)
        np.testing.assert_allclose(step.logits, four_term, rtol=0, atol=1e-12)
        assert step.plans == (None,) and step.evaluations == 2 + 2 * (gamma > 0)

    def test_exact_marginal_walk_past_the_cap_raises(self):
        # 4 ids on the 9 prefix sites of scale 4 make 4**9 = 262,144 prefixes;
        # the walk to scale 3 has 4**5.
        schedule = ScaleSchedule(((1, 1), (2, 2), (2, 2), (4, 4)))
        book = Codebook.seeded(4, 4, 2, seed=7)
        corpus = make_corpus(schedule, book, num_conditions=2, count=8, seed=1)
        model = fit_count_model(
            corpus, schedule, book, vocab=4, num_conditions=2, alpha=1.0,
            spec=SignatureSpec(2, 0), embed_seed=0, embed_dim=3, include_null=True,
        )
        assert 4 ** schedule.prefix_sites(4) > PREFIX_STATE_CAP >= 4 ** schedule.prefix_sites(3)
        with pytest.raises(TooLargeError, match=str(4 ** 9)):
            prefix_marginal_sites(model, 0, 4)
        with pytest.raises(TooLargeError):
            guided_step(model, 0, corpus[0][1][:3], GuidanceConfig(lam=1.0))
        assert prefix_marginal_sites(model, 0, 3).shape == (2, 2, 4)

    def test_cfg_without_null_rows_rejected(self, small_schedule, small_book):
        from prefixlab.model import fit_count_model
        from tests.conftest import make_corpus, uniform_maps

        corpus = make_corpus(small_schedule, small_book, 2, 6, seed=9)
        model = fit_count_model(
            corpus, small_schedule, small_book, vocab=3, num_conditions=2,
            alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4,
            include_null=False,
        )
        with pytest.raises(MissingRowError, match="gamma > 0"):
            guided_step(model, 0, [], GuidanceConfig(gamma=1.0))

    def test_fixed_plan_overrides_sampling(self, small_count):
        prefix = [TokenMap(1, np.asarray([[2]]))]
        plan = plan_corruption(
            small_count.schedule, 2, 1.0,
            CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, seed=77, vocab=small_count.vocab
        )
        config = GuidanceConfig(lam=0.5, fraction=1.0, reference="corrupted")
        a = guided_step(small_count, 0, prefix, config, plan=plan)
        b = guided_step(small_count, 0, prefix, config, plan=plan)
        assert a.plans[0] is plan
        assert np.array_equal(a.logits, b.logits)

    def test_signed_stack_is_the_prefix(self, small_count):
        # The stack's step is read from its embedding and its row count from
        # its signature list: the empty stack of two rows is a step at scale 1.
        prefixes = [[TokenMap(1, np.asarray([[v]]))] for v in range(2)]
        config = GuidanceConfig(gamma=1.0)
        first = guided_step(small_count, 0, small_count.embed([()] * 2), config)
        assert first.k == 1 and first.logits.shape == (2, 1, 1, 3)
        carried = guided_step(small_count, 0, small_count.embed(prefixes), config)
        for i, prefix in enumerate(prefixes):
            fresh = guided_step(small_count, 0, prefix, config)
            assert carried.k == fresh.k == 2
            assert np.array_equal(carried.logits[i], fresh.logits)

    def test_signed_stack_is_stepped_only_by_its_signer(
        self, small_tabular, small_count, small_book
    ):
        # A signed stack is stepped only by the model that signed it: not by
        # the other kind, nor by another model of its kind. Read by a count
        # model of another signature spec and embed seed, a count stack's
        # signatures would bin the signer's embeddings; read by a tabular
        # model on ((1,1),(1,4)), a stack keyed on 2x2 maps would give a
        # (1, 1, 4, 3) step.
        rule = "a signed stack is stepped only by the model that signed it"
        prefix = [TokenMap(1, np.asarray([[1]]))]
        other_count = fit_count_model(
            make_corpus(small_count.schedule, small_book, 2, 12, 5), small_count.schedule,
            small_book, vocab=3, num_conditions=2, alpha=1.0, spec=SignatureSpec(4, 1),
            embed_seed=12, embed_dim=4, include_null=True)
        other_tabular = build_tabular(ScaleSchedule(((1, 1), (1, 4))), 3, 2, seed=0)
        for signer, readers in ((small_count, (small_tabular, other_count)),
                                (small_tabular, (small_count, other_tabular))):
            for rows in ([()], [prefix]):
                signed = signer.embed(rows)
                for reader in readers:
                    with pytest.raises(InvalidInputError, match=rule):
                        guided_step(reader, 0, signed, GuidanceConfig())
            # One prefix's signed stack is a stack of one row, and its step
            # is the stacked step.
            step = guided_step(signer, 0, signed, GuidanceConfig())
            assert step.k == 2 and step.logits.shape == (1, 2, 2, 3)
            fresh = guided_step(signer, 0, prefix, GuidanceConfig())
            assert step.logits[0].tobytes() == fresh.logits.tobytes()

    def test_stack_prefixes_hold_one_step_on_both_kinds(
        self, small_tabular, small_count
    ):
        for model in (small_tabular, small_count):
            with pytest.raises(InvalidInputError, match="prefix 1: it holds 1 scales, not 0"):
                model.embed([(), ((1,),)])

    def test_prefix_list_is_read_as_one_prefix(self, small_tabular, small_count):
        # Only a signed stack is a stack, and no flag makes a list one: a
        # list of prefixes is one prefix whose parts are prefixes, which the
        # map rule names by its scale.
        prefixes = [[TokenMap(1, np.asarray([[v]]))] for v in range(2)]
        with pytest.raises(TypeError, match="stack"):
            guided_step(small_tabular, 0, prefixes, GuidanceConfig(), stack=True)
        for model in (small_tabular, small_count):
            for stack in (prefixes, [((0,),), ((1,),)]):
                with pytest.raises(InvalidInputError,
                                   match="prefix 0: the key's part at scale 1 is not 1 integer"):
                    guided_step(model, 0, stack, GuidanceConfig())

    def test_one_prefix_takes_one_plan_and_one_config(self, small_count, small_book):
        prefix = [TokenMap(1, np.asarray([[1]]))]
        config = GuidanceConfig(lam=1.0, fraction=1.0, reference="corrupted")
        plan = plan_corruption(small_count.schedule, 2, 1.0, config.variant, 0, small_book.vocab)
        rule = re.escape("one prefix takes one plan (or None) and one config")
        for plans, configs in (([plan], config), ([plan, None], config), (plan, [config])):
            with pytest.raises(InvalidInputError, match=rule):
                guided_step(small_count, 0, prefix, configs, plan=plans)
        assert guided_step(small_count, 0, prefix, config,
                           plan=plan).plans == (plan,)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("variant", list(CorruptionVariant))
    def test_maps_stack_equals_keys_stack_at_every_scale(
        self, multisite_count, multisite_book, gamma, variant
    ):
        # A stack signed from its prefix keys and the same stack signed from
        # their token maps take the same step bit for bit, at every k of a
        # schedule whose scales after the first have several sites, with
        # rows of their own strength and plan, some without a plan.
        model, book = multisite_count, multisite_book
        schedule = model.schedule
        rng = np.random.default_rng(3)
        configs = [GuidanceConfig(gamma=gamma, lam=lam, fraction=0.5, variant=variant,
                                  reference="corrupted") for lam in (0.0, 0.5, 1.0, 1.5)]
        keys = [()] * len(configs)
        for k in range(1, schedule.num_scales + 1):
            # Every row that draws a plan has one, and so has every odd row.
            plans = [plan_corruption(schedule, k, 0.5, variant, 10 * k + i, book.vocab)
                     if i % 2 or c.draws_plan(k, schedule) else None
                     for i, c in enumerate(configs)]
            by_keys = guided_step(model, 1, model.embed(keys), configs, plan=plans)
            by_maps = guided_step(
                model, 1, model.embed([prefix_maps(key, schedule) for key in keys]),
                configs, plan=plans)
            assert by_maps.k == by_keys.k == k
            assert by_maps.plans == by_keys.plans
            assert by_maps.contrasted == by_keys.contrasted
            assert same_bits(by_maps.logits, by_keys.logits)
            for name in BRANCHES:
                a, b = getattr(by_maps.branches, name), getattr(by_keys.branches, name)
                assert (a is None) == (b is None)
                assert a is None or same_bits(a, b)
            keys = [key + (tuple(rng.integers(0, 4, schedule.sites(k)).tolist()),)
                    for key in keys]

    @pytest.mark.parametrize("variant", list(CorruptionVariant))
    @pytest.mark.parametrize("prefix_scales", [1, 2])
    @pytest.mark.parametrize("fraction", [0.5, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_corrupted_branch_equals_explicit_computation(
        self, deep_count, variant, prefix_scales, fraction, gamma
    ):
        # An independent plan -> apply -> sign -> predict computation, for a
        # plan and for another drawn from the same seed.
        model, book, corpus = deep_count
        prefix = corpus[1][1][:prefix_scales]
        k = prefix_scales + 1
        plan = plan_corruption(model.schedule, k, fraction, variant, seed=4, vocab=book.vocab)
        config = GuidanceConfig(
            gamma=gamma, lam=1.0, fraction=fraction, variant=variant, reference="corrupted"
        )
        fixed = guided_step(model, 1, prefix, config, plan=plan)
        drawn = guided_step(model, 1, prefix, config, plan=plan_corruption(
            model.schedule, k, fraction, variant, seed=4, vocab=book.vocab
        ))
        assert fixed.plans[0] is plan
        assert drawn.plans[0] == plan

        def same_bits(got, cond):
            want = corrupted_logits(model, cond, prefix, plan, book)
            return got.shape == want.shape and got.tobytes() == want.tobytes()

        for step in (fixed, drawn):
            assert same_bits(step.branches.cond_corr, 1)
            if gamma:
                assert same_bits(step.branches.null_corr, NULL_CONDITION)
            else:
                assert step.branches.null_corr is None

    @pytest.mark.parametrize("variant", [v for v in CorruptionVariant
                                         if v is not CorruptionVariant.UNIFORM_PREFIX])
    def test_fraction_rounding_to_no_site_corrupts_nothing(self, small_count, variant):
        # The step at scale 2 has one prefix site, and 0.25 * 1 rounds to 0:
        # a site-selecting variant then has no site to corrupt, the step
        # needs no plan, and the corrupted pair is the clean pair.
        prefix = [TokenMap(1, np.asarray([[1]]))]
        config = GuidanceConfig(gamma=1.0, lam=1.0, fraction=0.25, variant=variant,
                                reference="corrupted")
        assert not config.draws_plan(2, small_count.schedule)
        step = guided_step(small_count, 0, prefix, config)
        assert step.plans[0] is None
        b = step.branches
        assert np.array_equal(b.cond_corr, b.cond_gen)
        assert np.array_equal(b.null_corr, b.null_gen)
        assert step.evaluations == 4

    @pytest.mark.parametrize("variant", list(CorruptionVariant))
    def test_step_that_selects_no_site_seeds_no_generator(
        self, small_count, small_book, variant, monkeypatch
    ):
        # 0.25 * 1 prefix site rounds to 0. Besides the sample's own
        # generator, only the uniform-prefix variant, which draws whole
        # grids, draws a plan and seeds its generator.
        seeded = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: seeded.append(seed) or default_rng(seed)
        )
        config = GuidanceConfig(lam=1.0, fraction=0.25, variant=variant, reference="corrupted")
        lane = (config, SamplerConfig(seed=9))
        step = rollouts(small_count, 0, [lane], small_book, 1)[0][0].trace[1]
        if variant is CorruptionVariant.UNIFORM_PREFIX:
            assert seeded == [9, step.plans[0].seed]
            assert step.plans[0].selected == ()
            assert [len(ids) for ids in step.plans[0].uniform_tokens] == [1]
        else:
            assert seeded == [9]
            assert step.plans[0] is None

    @pytest.mark.parametrize("variant", list(CorruptionVariant))
    def test_explicit_plan_applies_where_no_plan_is_drawn(self, deep_count, variant):
        # A fixed plan is applied even where the config's fraction selects
        # no site; at fraction 0.25 the step at scale 2 of deep_count draws
        # none.
        model, book, corpus = deep_count
        prefix = corpus[0][1][:1]
        config = GuidanceConfig(lam=1.0, fraction=0.25, variant=variant, reference="corrupted")
        plan = plan_corruption(model.schedule, 2, 1.0, variant, seed=2, vocab=book.vocab)
        step = guided_step(model, 0, prefix, config, plan=plan)
        assert step.plans[0] is plan
        assert np.array_equal(step.branches.cond_corr,
                              corrupted_logits(model, 0, prefix, plan, book))

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_fixed_plan_for_another_step_raises(self, deep_count, fraction):
        # Whether or not the plan changes a scale, a plan drawn for the step
        # at scale 3 does not apply to the step at scale 2.
        model, book, corpus = deep_count
        config = GuidanceConfig(lam=1.0, fraction=fraction, reference="corrupted")
        plan = plan_corruption(model.schedule, 3, fraction, config.variant, seed=0,
                               vocab=book.vocab)
        with pytest.raises(InconsistentPlanError, match="step 3"):
            guided_step(model, 0, corpus[0][1][:1], config, plan=plan)

    def test_both_corrupted_branches_share_one_plan(self, small_count, small_book):
        prefix = [TokenMap(1, np.asarray([[0]]))]
        config = GuidanceConfig(gamma=1.0, lam=1.0, fraction=1.0, reference="corrupted")
        plan = plan_corruption(small_count.schedule, 2, 1.0, config.variant, 5, small_book.vocab)
        step = guided_step(small_count, 0, prefix, config, plan=plan)
        assert step.plans[0] is plan
        for cond, got in ((0, step.branches.cond_corr), (NULL_CONDITION, step.branches.null_corr)):
            want = corrupted_logits(small_count, cond, prefix, plan, small_book)
            assert np.array_equal(got, want)


class TestStackedStep:
    """A stack of prefixes takes one guided step whose rows equal one-prefix
    steps bit for bit."""

    @given(
        st.data(),
        st.sampled_from(["tabular", "count"]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from(list(CorruptionVariant)),
        # 0.1 of at most 5 prefix sites selects no site.
        st.sampled_from([0.1, 0.5, 1.0]),
        st.integers(0, 2**16),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_one_prefix_steps(
        self, data, kind, gamma, lam, variant, fraction, seed, rows
    ):
        schedule = data.draw(multisite_schedules(max_prefix_sites=5))
        k = data.draw(st.integers(1, schedule.num_scales))
        vocab = 2 if kind == "tabular" else 3
        book = Codebook.seeded(schedule.num_scales, vocab, 2, seed=7)
        if kind == "tabular":
            model = build_tabular(schedule, vocab=vocab, num_conditions=2, seed=seed)
            config = GuidanceConfig(gamma=gamma, lam=lam, reference="exact-marginal")
        else:
            corpus = make_corpus(schedule, book, num_conditions=2, count=12, seed=seed)
            model = fit_count_model(
                corpus, schedule, book, vocab=vocab, num_conditions=2, alpha=1.0,
                spec=SignatureSpec(bins=2, seed=0), embed_seed=0, embed_dim=3,
                include_null=True,
            )
            config = GuidanceConfig(gamma=gamma, lam=lam, fraction=fraction, variant=variant,
                                    reference="corrupted")
        # Rows drawn from a few prefixes, so some share their branch input.
        rng = np.random.default_rng(seed)
        pool = [[TokenMap(j, rng.integers(0, vocab, schedule.grid(j))) for j in range(1, k)]
                for _ in range(3)]
        prefixes = [pool[i] for i in rng.integers(0, len(pool), rows)]
        # Where no plan is drawn, every other row is given one anyway.
        draws = config.draws_plan(k, schedule)
        plans = [
            plan_corruption(schedule, k, fraction, variant, seed + i, book.vocab)
            if kind == "count" and (draws or i % 2) else None
            for i in range(rows)
        ]
        step = guided_step(model, 1, model.embed(prefixes), config, plan=plans)
        assert step.logits.shape == (rows,) + schedule.grid(k) + (vocab,)
        alone = [guided_step(model, 1, prefix, config, plan=plan)
                 for prefix, plan in zip(prefixes, plans)]
        assert step.evaluations == sum(a.evaluations for a in alone)
        for i, want in enumerate(alone):
            got = step.row(i)
            assert got.k == want.k == k and got.plans == want.plans
            assert same_bits(got.logits, want.logits)
            assert not got.logits.flags.writeable
            for name in BRANCHES:
                a, b = getattr(got.branches, name), getattr(want.branches, name)
                assert (a is None) == (b is None)
                assert a is None or same_bits(a, b)

    @given(
        st.data(),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from(TOKEN_VARIANTS),
        st.sampled_from([0.1, 0.5, 1.0]),
        st.integers(0, 2**16),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_tabular_corrupted_rows_equal_one_prefix_steps(
        self, data, gamma, variant, fraction, seed, rows
    ):
        # Rows under their own plans, and rows without one, each read at
        # its own corrupted key.
        schedule = data.draw(multisite_schedules(max_prefix_sites=5))
        k = data.draw(st.integers(1, schedule.num_scales))
        book = Codebook.seeded(schedule.num_scales, 2, 2, seed=7)
        model = build_tabular(schedule, vocab=2, num_conditions=2, seed=seed)
        config = GuidanceConfig(gamma=gamma, lam=1.0, fraction=fraction, variant=variant,
                                reference="corrupted")
        rng = np.random.default_rng(seed)
        prefixes = [[TokenMap(j, rng.integers(0, 2, schedule.grid(j))) for j in range(1, k)]
                    for _ in range(rows)]
        draws = config.draws_plan(k, schedule)
        plans = [plan_corruption(schedule, k, fraction, variant, seed + i, book.vocab)
                 if draws or i % 2 else None for i in range(rows)]
        step = guided_step(model, 1, model.embed(prefixes), config, plan=plans)
        alone = [guided_step(model, 1, prefix, config, plan=plan)
                 for prefix, plan in zip(prefixes, plans)]
        assert step.evaluations == sum(a.evaluations for a in alone)
        for i, want in enumerate(alone):
            got = step.row(i)
            assert got.plans == want.plans and same_bits(got.logits, want.logits)
            for name in BRANCHES:
                a, b = getattr(got.branches, name), getattr(want.branches, name)
                assert (a is None) == (b is None)
                assert a is None or same_bits(a, b)

    @given(
        st.data(),
        st.sampled_from(["tabular", "count"]),
        st.sampled_from([0.0, 1.0]),
        st.integers(0, 2**16),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_with_their_own_configs_equal_one_config_steps(
        self, data, kind, gamma, seed, rows
    ):
        schedule = data.draw(multisite_schedules(max_prefix_sites=5))
        k = data.draw(st.integers(1, schedule.num_scales))
        vocab = 2 if kind == "tabular" else 3
        book = Codebook.seeded(schedule.num_scales, vocab, 2, seed=7)
        if kind == "tabular":
            model = build_tabular(schedule, vocab=vocab, num_conditions=2, seed=seed)
        else:
            corpus = make_corpus(schedule, book, num_conditions=2, count=12, seed=seed)
            model = fit_count_model(
                corpus, schedule, book, vocab=vocab, num_conditions=2, alpha=1.0,
                spec=SignatureSpec(bins=2, seed=0), embed_seed=0, embed_dim=3,
                include_null=True,
            )
        # Each row its own strength, mask, fraction and variant.
        configs = [GuidanceConfig(
            gamma=gamma,
            lam=data.draw(st.sampled_from([0.0, 0.5, 1.5])),
            fraction=data.draw(st.sampled_from([0.1, 0.5, 1.0])),
            variant=data.draw(st.sampled_from(list(CorruptionVariant))),
            scale_mask=data.draw(st.sampled_from([None, frozenset({k}), frozenset({k + 1})])),
            reference="exact-marginal" if kind == "tabular" else "corrupted",
        ) for _ in range(rows)]
        rng = np.random.default_rng(seed)
        prefixes = [[TokenMap(j, rng.integers(0, vocab, schedule.grid(j))) for j in range(1, k)]
                    for _ in range(rows)]
        # Where a row draws no plan, every other row is given one anyway.
        plans = [
            plan_corruption(schedule, k, c.fraction, c.variant, seed + i, book.vocab)
            if kind == "count" and (c.draws_plan(k, schedule) or i % 2) else None
            for i, c in enumerate(configs)
        ]
        step = guided_step(model, 1, model.embed(prefixes), configs, plan=plans)
        alone = [guided_step(model, 1, prefix, config, plan=plan)
                 for prefix, config, plan in zip(prefixes, configs, plans)]
        assert step.evaluations == sum(a.evaluations for a in alone)
        for i, want in enumerate(alone):
            got = step.row(i)
            assert got.k == want.k == k and got.plans == want.plans
            assert got.evaluations == want.evaluations
            assert same_bits(got.logits, want.logits)
            for name in BRANCHES:
                a, b = getattr(got.branches, name), getattr(want.branches, name)
                assert (a is None) == (b is None)
                assert a is None or same_bits(a, b)

    @given(st.data(), st.sampled_from([0.0, 1.0]), st.integers(0, 2**16), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_count_stack_embedded_in_one_call_equals_one_prefix_steps(
        self, data, gamma, seed, rows
    ):
        # The prefixes are embedded in one stacked call, at every step
        # including the first (the empty stack), the step embeds no clean
        # prefix again, and the planned rows, of several variants, are taken
        # from that stack.
        import prefixlab.guidance
        import prefixlab.model

        schedule = data.draw(multisite_schedules(max_prefix_sites=5))
        k = data.draw(st.integers(1, schedule.num_scales))
        book = Codebook.seeded(schedule.num_scales, 3, 2, seed=7)
        corpus = make_corpus(schedule, book, num_conditions=2, count=12, seed=seed)
        model = fit_count_model(
            corpus, schedule, book, vocab=3, num_conditions=2, alpha=1.0,
            spec=SignatureSpec(bins=2, seed=0), embed_seed=0, embed_dim=3, include_null=True,
        )
        configs = [GuidanceConfig(
            gamma=gamma, lam=data.draw(st.sampled_from([0.0, 1.0])),
            fraction=data.draw(st.sampled_from([0.1, 0.5, 1.0])),
            variant=data.draw(st.sampled_from(list(CorruptionVariant))), reference="corrupted",
        ) for _ in range(rows)]
        rng = np.random.default_rng(seed)
        prefixes = [[TokenMap(j, rng.integers(0, 3, schedule.grid(j))) for j in range(1, k)]
                    for _ in range(rows)]
        plans = [plan_corruption(schedule, k, c.fraction, c.variant, seed + i, book.vocab)
                 if c.draws_plan(k, schedule) else None for i, c in enumerate(configs)]
        embed, calls = prefixlab.model.CountModel.embed, []
        corrupt = prefixlab.guidance.corrupted_signatures
        prefixlab.model.CountModel.embed = lambda *a: calls.append("embed") or embed(*a)
        prefixlab.guidance.corrupted_signatures = (
            lambda *a: calls.append("corrupt") or corrupt(*a))
        try:
            step = guided_step(model, 1, model.embed(prefixes), configs,
                               plan=plans)
        finally:
            prefixlab.model.CountModel.embed = embed
            prefixlab.guidance.corrupted_signatures = corrupt
        # The clean prefixes are embedded in one call, before any row is
        # corrupted (uniform-prefix rows embed their plans' grids then).
        assert calls[:2] in (["embed"], ["embed", "corrupt"])
        alone = [guided_step(model, 1, prefix, config, plan=plan)
                 for prefix, config, plan in zip(prefixes, configs, plans)]
        for i, want in enumerate(alone):
            got = step.row(i)
            assert got.plans == want.plans and got.evaluations == want.evaluations
            assert same_bits(got.logits, want.logits)
            for name in BRANCHES:
                a, b = getattr(got.branches, name), getattr(want.branches, name)
                assert (a is None) == (b is None)
                assert a is None or same_bits(a, b)

    def test_rows_of_a_stack_share_gamma_and_reference(self, small_tabular):
        prefixes = [[TokenMap(1, np.asarray([[v]]))] for v in range(2)]
        config = GuidanceConfig(gamma=1.0, lam=1.0)
        stack = small_tabular.embed(prefixes)
        step = guided_step(small_tabular, 0, stack, [config, replace(config, lam=0.0)])
        assert step.contrasted == (True, False)
        assert step.row(1).branches.cond_corr is None and step.evaluations == 4 + 2
        for other in (replace(config, gamma=0.5), replace(config, reference="corrupted")):
            with pytest.raises(InvalidInputError, match="share gamma and reference"):
                guided_step(small_tabular, 0, stack, [config, other])
        with pytest.raises(InvalidInputError, match="one config or one per prefix"):
            guided_step(small_tabular, 0, stack, [config])

    def test_stack_is_one_step_with_one_entry_per_prefix(self, small_count, small_book):
        prefixes = [[TokenMap(1, np.asarray([[v]]))] for v in range(3)]
        config = GuidanceConfig(lam=1.0, fraction=1.0, reference="corrupted")
        plan = plan_corruption(small_count.schedule, 2, 1.0, config.variant, 0, small_book.vocab)
        stack = small_count.embed(prefixes)
        with pytest.raises(InvalidInputError, match="one plan per prefix"):
            guided_step(small_count, 0, stack, config, plan=[plan])
        with pytest.raises(InvalidInputError, match="prefix 1: it holds 1 scales, not 0"):
            small_count.embed([[], prefixes[0]])
        with pytest.raises(IllDefinedLawError, match="needs a plan"):
            guided_step(small_count, 0, stack, config, plan=[plan, None, plan])
        step = guided_step(small_count, 0, stack, config, plan=[plan] * 3)
        assert step.plans == (plan,) * 3 and step.row(1).plans == (plan,)
