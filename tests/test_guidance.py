"""Guidance algebra and per-step branch orchestration."""

import numpy as np
import pytest

from prefixlab.corruption import CorruptionVariant, apply_corruption, plan_corruption
from prefixlab.errors import (
    GuidanceConfigError,
    IllDefinedLawError,
    InvalidInputError,
    MissingBranchError,
    MissingRowError,
)
from prefixlab.guidance import (
    BranchLogits,
    GuidanceConfig,
    cfg_combine,
    compose_cfg_vpg,
    guided_step,
    vpg_combine,
)
from prefixlab.model import (
    NULL_CONDITION,
    SignatureSpec,
    TokenMap,
    context_signature,
    fit_count_model,
    predict_logits,
)
from prefixlab.oracle import softmax
from prefixlab.tokenizer import Codebook, ScaleSchedule
from tests.conftest import make_corpus


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
            cfg_combine(cond, null, 2.0), 3.0 * cond - 2.0 * null
        )

    def test_vpg_formula(self):
        gen = np.asarray([0.0, 1.0])
        corr = np.asarray([1.0, 0.0])
        np.testing.assert_allclose(
            vpg_combine(gen, corr, 0.5), 1.5 * gen - 0.5 * corr
        )

    def test_zero_strength_passthrough(self):
        x = np.asarray([3.0, -1.0])
        y = np.asarray([9.0, 9.0])
        np.testing.assert_allclose(cfg_combine(x, y, 0.0), x)
        np.testing.assert_allclose(vpg_combine(x, y, 0.0), x)

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            cfg_combine(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(InvalidInputError):
            vpg_combine(np.zeros((1, 2)), np.zeros((2, 1)), 1.0)


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

    def test_rejects_unknown_reference(self):
        with pytest.raises(GuidanceConfigError):
            GuidanceConfig(reference="weird")

    def test_scale_mask_membership(self):
        cfg = GuidanceConfig(scale_mask=(2, 3))
        assert not cfg.masked_in(1)
        assert cfg.masked_in(2)
        assert GuidanceConfig().masked_in(7)


class TestGuidedStepTabular:
    def test_exact_marginal_matches_augmented_law(self, m1):
        config = GuidanceConfig(lam=1.0, reference="exact-marginal")
        step = guided_step(m1, 0, [TokenMap(1, np.asarray([[0]]))], config)
        probs = softmax(step.logits).reshape(-1)
        np.testing.assert_allclose(probs, [0.6923, 0.3077], atol=1e-4)
        assert step.evaluations == 2

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

    def test_corrupted_reference_rejects_tabular(self, small_tabular):
        prefix = [TokenMap(1, np.asarray([[0]]))]
        config = GuidanceConfig(lam=1.0, reference="corrupted")
        with pytest.raises(GuidanceConfigError):
            guided_step(small_tabular, 0, prefix, config)


class TestGuidedStepCount:
    def test_needs_codebook(self, small_count):
        with pytest.raises(InvalidInputError):
            guided_step(small_count, 0, [], GuidanceConfig())

    def test_corrupted_branch_counts(self, small_count, small_book, monkeypatch):
        # One signature per embedding (clean, corrupted), however many
        # branches are evaluated on it.
        signatures = []
        monkeypatch.setattr(
            "prefixlab.model.context_signature",
            lambda emb, thresholds: signatures.append(emb) or context_signature(emb, thresholds),
        )
        prefix = [TokenMap(1, np.asarray([[1]]))]
        cases = [
            (GuidanceConfig(), 1, 1),
            (GuidanceConfig(gamma=1.0), 2, 1),
            (GuidanceConfig(lam=0.5, fraction=1.0, reference="corrupted"), 2, 2),
            (GuidanceConfig(gamma=1.0, lam=0.5, fraction=1.0, reference="corrupted"), 4, 2),
        ]
        clean = predict_logits(small_count, 0, prefix, book=small_book)
        for config, expected, signed in cases:
            signatures.clear()
            step = guided_step(small_count, 0, prefix, config, book=small_book, plan_seed=0)
            assert step.evaluations == expected
            assert len(signatures) == signed
            assert np.array_equal(step.branches.cond_gen, clean)

    def test_corrupted_branch_needs_a_plan_or_a_seed(self, small_count, small_book):
        prefix = [TokenMap(1, np.asarray([[1]]))]
        config = GuidanceConfig(lam=1.0, fraction=1.0, reference="corrupted")
        with pytest.raises(IllDefinedLawError, match="scale 2"):
            guided_step(small_count, 0, prefix, config, book=small_book)
        plan = plan_corruption(
            small_count.schedule, 2, 1.0, config.variant, seed=0, book=small_book
        )
        seeded = guided_step(small_count, 0, prefix, config, book=small_book, plan_seed=0)
        fixed = guided_step(small_count, 0, prefix, config, book=small_book, plan=plan)
        assert seeded.plan == plan
        assert np.array_equal(seeded.logits, fixed.logits)

    @pytest.mark.parametrize("condition", [7, -1])
    def test_unknown_condition_raises_for_both_model_kinds(
        self, condition, small_tabular, small_count, small_book
    ):
        prefix = [TokenMap(1, np.asarray([[1]]))]
        config = GuidanceConfig(gamma=1.0)
        for model in (small_tabular, small_count):
            with pytest.raises(MissingRowError, match=f"condition {condition}"):
                guided_step(model, condition, prefix, config, book=small_book)

    def test_exact_marginal_rejects_count_model(self, small_count, small_book):
        prefix = [TokenMap(1, np.asarray([[1]]))]
        config = GuidanceConfig(lam=1.0, reference="exact-marginal")
        with pytest.raises(GuidanceConfigError):
            guided_step(small_count, 0, prefix, config, book=small_book)

    def test_cfg_without_null_rows_rejected(self, small_schedule, small_book):
        from prefixlab.model import fit_count_model
        from tests.conftest import make_corpus

        corpus = make_corpus(small_schedule, small_book, 2, 6, seed=9)
        model = fit_count_model(
            corpus, small_schedule, small_book, vocab=3, num_conditions=2,
            alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4,
            include_null=False,
        )
        with pytest.raises(GuidanceConfigError):
            guided_step(model, 0, [], GuidanceConfig(gamma=1.0), book=small_book)

    def test_fixed_plan_overrides_sampling(self, small_count, small_book):
        prefix = [TokenMap(1, np.asarray([[2]]))]
        plan = plan_corruption(
            small_count.schedule, 2, 1.0,
            CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, seed=77,
        )
        config = GuidanceConfig(lam=0.5, fraction=1.0, reference="corrupted")
        a = guided_step(small_count, 0, prefix, config, book=small_book, plan=plan)
        b = guided_step(small_count, 0, prefix, config, book=small_book, plan=plan)
        assert a.plan is plan
        assert np.array_equal(a.logits, b.logits)

    def test_signed_embedding_for_wrong_step_raises(self, small_count, small_book):
        prefix = [TokenMap(1, np.asarray([[1]]))]
        config = GuidanceConfig(gamma=1.0)
        for_step_1 = small_count.embed([], small_book)
        with pytest.raises(InvalidInputError, match="step 1"):
            guided_step(small_count, 0, prefix, config, book=small_book, signed=for_step_1)
        for_step_2 = small_count.embed(prefix, small_book)
        carried = guided_step(small_count, 0, prefix, config, book=small_book, signed=for_step_2)
        fresh = guided_step(small_count, 0, prefix, config, book=small_book)
        assert np.array_equal(carried.logits, fresh.logits)

    def test_signed_embedding_rejected_for_tabular_model(self, small_tabular, small_count, small_book):
        signed = small_count.embed([], small_book)
        with pytest.raises(InvalidInputError, match="count model"):
            guided_step(small_tabular, 0, [], GuidanceConfig(), signed=signed)

    @pytest.mark.parametrize("variant", list(CorruptionVariant))
    @pytest.mark.parametrize("prefix_scales", [1, 2])
    @pytest.mark.parametrize("fraction", [0.5, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_corrupted_branch_equals_explicit_computation(
        self, deep_count, variant, prefix_scales, fraction, gamma
    ):
        # An independent plan -> apply -> sign -> predict computation, for a
        # fixed plan and for the plan guided_step draws from the same seed.
        model, book, corpus = deep_count
        prefix = corpus[1][1][:prefix_scales]
        k = prefix_scales + 1
        plan = plan_corruption(model.schedule, k, fraction, variant, seed=4, book=book)
        corrupted = model.sign(apply_corruption(
            model.embed(prefix, book).embedding, plan, book, model.schedule, model.params
        ))
        config = GuidanceConfig(
            gamma=gamma, lam=1.0, fraction=fraction, variant=variant, reference="corrupted"
        )
        fixed = guided_step(model, 1, prefix, config, book=book, plan=plan)
        drawn = guided_step(model, 1, prefix, config, book=book, plan_seed=4)
        assert fixed.plan is plan
        assert drawn.plan == plan

        def same_bits(got, cond):
            want = predict_logits(model, cond, prefix, signed=corrupted)
            return got.shape == want.shape and got.tobytes() == want.tobytes()

        for step in (fixed, drawn):
            assert same_bits(step.branches.cond_corr, 1)
            if gamma:
                assert same_bits(step.branches.null_corr, NULL_CONDITION)
            else:
                assert step.branches.null_corr is None

    def test_both_corrupted_branches_share_one_plan(self, small_count, small_book):
        prefix = [TokenMap(1, np.asarray([[0]]))]
        config = GuidanceConfig(gamma=1.0, lam=1.0, fraction=1.0, reference="corrupted")
        step = guided_step(
            small_count, 0, prefix, config, book=small_book, plan_seed=5
        )
        assert step.plan is not None
        assert step.plan.seed == 5
