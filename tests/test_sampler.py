"""Truncation rules, rollouts, trace replay and exact rollout laws."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prefixlab.corruption import CorruptionVariant, plan_corruption
from prefixlab.errors import (
    DegenerateDistributionError,
    IllDefinedLawError,
    InvalidInputError,
)
from prefixlab.guidance import GuidanceConfig, guided_step
from prefixlab.oracle import softmax
from prefixlab.sampler import (
    SamplerConfig,
    replay_trace,
    rollout_distribution,
    rollouts,
    trace_from_csv,
    trace_to_csv,
    truncate_and_sample,
    truncated_law,
    truncated_site_law,
)
from prefixlab.model import SignatureSpec, fit_count_model
from prefixlab.tokenizer import Codebook, ScaleSchedule, TokenMap, decode_maps
from tests.conftest import make_corpus


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SamplerConfig(temperature=0.0)
        with pytest.raises(InvalidInputError):
            SamplerConfig(top_k=0)
        with pytest.raises(InvalidInputError):
            SamplerConfig(top_p=0.0)
        with pytest.raises(InvalidInputError):
            SamplerConfig(top_p=1.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_temperature(self, value):
        with pytest.raises(InvalidInputError, match="temperature"):
            SamplerConfig(temperature=value)


class TestTruncation:
    def test_identity_at_full_settings(self):
        logits = np.asarray([0.2, -1.0, 2.5])
        law = truncated_site_law(
            logits, SamplerConfig(temperature=1.0, top_k=3, top_p=1.0)
        )
        np.testing.assert_allclose(law, softmax(logits), atol=1e-12)

    def test_top_p_fixture(self):
        # Probabilities [0.5, 0.3, 0.2] with top_p = 0.7: the boundary token
        # (id 1) is included, the tail dropped, survivors renormalized.
        logits = np.log(np.asarray([0.5, 0.3, 0.2]))
        law = truncated_site_law(logits, SamplerConfig(top_p=0.7))
        np.testing.assert_allclose(law, [0.5 / 0.8, 0.3 / 0.8, 0.0], atol=1e-9)

    def test_top_k_keeps_largest(self):
        logits = np.log(np.asarray([0.1, 0.6, 0.3]))
        law = truncated_site_law(logits, SamplerConfig(top_k=2))
        np.testing.assert_allclose(law, [0.0, 0.6 / 0.9, 0.3 / 0.9], atol=1e-9)

    def test_ties_break_to_lower_id(self):
        logits = np.zeros(3)
        law = truncated_site_law(logits, SamplerConfig(top_k=1))
        np.testing.assert_allclose(law, [1.0, 0.0, 0.0])

    def test_temperature_applies_before_truncation(self):
        logits = np.asarray([1.0, 0.0, -5.0])
        cold = truncated_site_law(
            logits, SamplerConfig(temperature=0.05, top_p=0.95)
        )
        # At T = 0.05 the top token holds nearly all mass, so top-p keeps it alone.
        np.testing.assert_allclose(cold, [1.0, 0.0, 0.0], atol=1e-8)
        warm = truncated_site_law(
            logits, SamplerConfig(temperature=10.0, top_p=0.95)
        )
        assert np.count_nonzero(warm) == 3

    def test_all_minus_inf_raises(self):
        with pytest.raises(DegenerateDistributionError):
            truncated_site_law(np.full(3, -np.inf), SamplerConfig())

    def test_grid_law_shape(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 2, 4))
        laws = truncated_law(logits, SamplerConfig(top_k=2))
        assert laws.shape == (2, 2, 4)
        np.testing.assert_allclose(laws.sum(axis=-1), 1.0, atol=1e-12)

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.integers(1, 6),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_law_is_distribution_with_bounded_support(self, raw, top_k, top_p):
        logits = np.asarray(raw)
        law = truncated_site_law(logits, SamplerConfig(top_k=top_k, top_p=top_p))
        assert law.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(law >= 0)
        assert np.count_nonzero(law) <= min(top_k, logits.shape[0])


def reference_site_law(logits, config):
    """The one-site truncation the vectorized pass must reproduce bit for bit."""
    logits = np.asarray(logits, dtype=float)
    if not np.any(logits > -np.inf):
        raise DegenerateDistributionError("all logits are -inf")
    vocab = logits.shape[0]
    scaled = logits / config.temperature
    order = np.lexsort((np.arange(vocab), -scaled))
    keep = vocab if config.top_k is None else min(config.top_k, vocab)
    kept = order[:keep]
    probs = np.zeros(vocab)
    kept_probs = softmax(scaled[kept])
    cum = np.cumsum(kept_probs)
    cutoff = int(np.searchsorted(cum, config.top_p - 1e-15)) + 1
    support = kept[:cutoff]
    probs[support] = kept_probs[:cutoff] / kept_probs[:cutoff].sum()
    return probs


# Few distinct values make ties common; -inf masks tokens out.
LOGIT = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.5, -np.inf]),
    st.floats(-30, 30, allow_nan=False),
)


@st.composite
def logit_grids(draw, samples=False):
    """An (h, w, V) grid, or (n, h, w, V) for n samples if ``samples``."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 12)))
    if samples:
        shape = (draw(st.integers(1, 3)),) + shape
    grid = draw(arrays(float, shape, elements=LOGIT))
    config = SamplerConfig(
        temperature=draw(st.sampled_from([1.0, 0.3, 2.0, 7.5])),
        top_k=draw(st.one_of(st.none(), st.integers(1, 13))),
        top_p=draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0))),
    )
    return grid, config


class TestVectorizedPass:
    @given(logit_grids())
    @settings(max_examples=300, deadline=None)
    def test_law_equals_per_site_reference_bit_for_bit(self, case):
        grid, config = case
        flat = grid.reshape(-1, grid.shape[-1])
        if not np.all(np.any(flat > -np.inf, axis=-1)):
            with pytest.raises(DegenerateDistributionError):
                truncated_law(grid, config)
            return
        expected = np.stack([reference_site_law(site, config) for site in flat])
        got = truncated_law(grid, config)
        assert got.shape == grid.shape
        assert np.array_equal(got.reshape(flat.shape).view(np.int64), expected.view(np.int64))
        assert np.array_equal(
            truncated_site_law(flat[0], config).view(np.int64), expected[0].view(np.int64)
        )

    @given(logit_grids(samples=True), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_ids_and_generator_state_equal_per_site_choice(self, case, seed):
        # The leading axis is the samples, each with its own generator; each
        # sample's (h, w) sites are drawn in row-major order.
        grid, config = case
        flat = grid.reshape(-1, grid.shape[-1])
        if not np.all(np.any(flat > -np.inf, axis=-1)):
            return
        ours = [np.random.default_rng(seed + i) for i in range(grid.shape[0])]
        theirs = [np.random.default_rng(seed + i) for i in range(grid.shape[0])]
        ids = truncate_and_sample(grid, config, ours)
        assert ids.shape == grid.shape[:-1]
        for sample_ids, sample, rng in zip(ids, grid, theirs):
            expected = [
                rng.choice(grid.shape[-1], p=reference_site_law(site, config))
                for site in sample.reshape(-1, grid.shape[-1])
            ]
            assert sample_ids.ravel().tolist() == expected
        assert [rng.random() for rng in ours] == [rng.random() for rng in theirs]

    @pytest.mark.parametrize("site", [[0.0, np.nan, 1.0], [0.0, np.inf, 1.0]])
    def test_non_distribution_law_raises(self, site):
        logits = np.asarray([[site, [0.0, 0.0, 0.0]]])
        with np.errstate(invalid="ignore"), pytest.raises(DegenerateDistributionError):
            truncate_and_sample(logits, SamplerConfig(), [np.random.default_rng(0)])

    @pytest.mark.parametrize("generators", [1, 3])
    def test_needs_one_generator_per_sample(self, generators):
        rngs = [np.random.default_rng(i) for i in range(generators)]
        with pytest.raises(InvalidInputError, match="one generator"):
            truncate_and_sample(np.zeros((2, 2, 3)), SamplerConfig(), rngs)

    def test_site_law_needs_one_site(self):
        with pytest.raises(InvalidInputError):
            truncated_site_law(np.zeros((2, 3)), SamplerConfig())


class TestSampling:
    def test_sample_deterministic_per_rng_state(self):
        logits = np.random.default_rng(1).normal(size=(2, 2, 3))

        def draw():
            rngs = [np.random.default_rng(7), np.random.default_rng(8)]
            return truncate_and_sample(logits, SamplerConfig(), rngs)

        assert np.array_equal(draw(), draw())

    def test_greedy_rollout_on_m1(self, m1, m1_book):
        config = SamplerConfig(top_k=1)
        result = rollouts(m1, 0, GuidanceConfig(), config, m1_book, 1)[0]
        # Argmax path: r1 = 0 (0.75), then r2 = 0 (0.6).
        assert [m.key() for m in result.maps] == [(0,), (0,)]

    def test_rollout_seed_determinism(self, m1, m1_book):
        a = rollouts(m1, 0, GuidanceConfig(), SamplerConfig(seed=3), m1_book, 1)[0]
        b = rollouts(m1, 0, GuidanceConfig(), SamplerConfig(seed=3), m1_book, 1)[0]
        assert [m.key() for m in a.maps] == [m.key() for m in b.maps]
        np.testing.assert_array_equal(a.latent, b.latent)

    def test_replay_is_bit_exact(self, small_count, small_book):
        gconfig = GuidanceConfig(gamma=0.5, lam=1.0, fraction=0.5, reference="corrupted")
        result = rollouts(small_count, 1, gconfig, SamplerConfig(seed=9), small_book, 1)[0]
        replayed = replay_trace(small_count, result, gconfig, small_book)
        for step, logits in zip(result.trace, replayed):
            assert np.array_equal(step.logits, logits)

    def test_trace_csv_roundtrip(self, m1, m1_book, small_tabular, small_book, tmp_path):
        # m1 is 1x1 at both scales; small_tabular has a 2x2 second scale.
        for model, book in ((m1, m1_book), (small_tabular, small_book)):
            result = rollouts(model, 0, GuidanceConfig(), SamplerConfig(seed=2), book, 1)[0]
            path = tmp_path / "trace.csv"
            trace_to_csv(result, path)
            back = trace_from_csv(path)
            assert set(back) == {1, 2}
            for k, tmap in enumerate(result.maps, start=1):
                ids = tmap.ids.ravel()
                logits = result.trace[k - 1].logits.reshape(ids.size, -1)
                assert sorted(back[k]) == list(range(ids.size))
                for u in range(ids.size):
                    sampled, row = back[k][u]
                    assert sampled == int(ids[u])
                    assert np.array_equal(row, logits[u])


def reference_rollouts(model, condition, gconfig, sconfig, book, count):
    """One sample at a time: the loop the batched rollouts must reproduce."""
    out = []
    for i in range(count):
        rng = np.random.default_rng(sconfig.seed + i)
        maps, steps = [], []
        for k in range(1, model.schedule.num_scales + 1):
            plan_seed = int(rng.integers(2**32))
            step = guided_step(model, condition, maps, gconfig, book=book, plan_seed=plan_seed)
            ids = truncate_and_sample(step.logits[None], sconfig, [rng])[0]
            maps.append(TokenMap(k, ids))
            steps.append(step)
        latent = decode_maps(maps, model.schedule, book)
        out.append((maps, steps, latent, sconfig.seed + i))
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


ROLLOUT_CASES = {
    # Tabular model, CFG and prefix contrast against the exact marginal.
    "tabular_exact_marginal": (
        "small_tabular",
        GuidanceConfig(gamma=1.0, lam=1.5, reference="exact-marginal"),
        SamplerConfig(temperature=0.8, top_k=2, top_p=0.9, seed=40),
    ),
    # Count model, corrupted reference with a random plan per step.
    "count_corrupted": (
        "small_count",
        GuidanceConfig(gamma=0.5, lam=1.0, fraction=0.5, reference="corrupted"),
        SamplerConfig(seed=9),
    ),
}


class TestRollouts:
    @pytest.mark.parametrize("count", [1, 7])
    @pytest.mark.parametrize("case", sorted(ROLLOUT_CASES))
    def test_batch_equals_one_sample_at_a_time(self, case, count, request, small_book):
        fixture, gconfig, sconfig = ROLLOUT_CASES[case]
        model = request.getfixturevalue(fixture)
        got = rollouts(model, 1, gconfig, sconfig, small_book, count)
        expected = reference_rollouts(model, 1, gconfig, sconfig, small_book, count)
        assert len(got) == count
        for result, (maps, steps, latent, seed) in zip(got, expected):
            assert result.seed == seed and result.condition == 1
            assert [m.k for m in result.maps] == [m.k for m in maps]
            assert all(same_bits(a.ids, b.ids) for a, b in zip(result.maps, maps))
            for got_step, step in zip(result.trace, steps, strict=True):
                assert got_step.k == step.k
                assert same_bits(got_step.logits, step.logits)
                assert got_step.plan == step.plan
                assert got_step.evaluations == step.evaluations
            assert same_bits(result.latent, latent)
        if fixture == "small_count":
            assert any(r.trace[-1].plan is not None for r in got)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_raises(self, count, m1, m1_book):
        with pytest.raises(InvalidInputError, match="count"):
            rollouts(m1, 0, GuidanceConfig(), SamplerConfig(), m1_book, count)

    def test_count_model_rejects_a_codebook_of_another_latent_size(self, small_count):
        schedule = small_count.schedule
        book = Codebook.seeded(schedule.num_scales, small_count.vocab, 3, seed=0)
        with pytest.raises(InvalidInputError, match="latent size 3 is not the fitted 2"):
            rollouts(small_count, 0, GuidanceConfig(), SamplerConfig(), book, 1)


class TestCarriedRollouts:
    """The latents and signed embeddings that rollouts carry forward scale by
    scale give the same steps as embedding each prefix afresh."""

    @pytest.mark.parametrize("mask", [None, frozenset({3})])
    @pytest.mark.parametrize("variant", list(CorruptionVariant))
    def test_every_step_equals_a_fresh_guided_step(
        self, variant, mask, multisite_count, multisite_book
    ):
        model, book = multisite_count, multisite_book
        for gamma in (0.0, 1.0):
            for lam in (0.0, 1.0):
                gconfig = GuidanceConfig(
                    gamma=gamma, lam=lam, fraction=0.5, variant=variant, scale_mask=mask,
                    reference="corrupted",
                )
                for result in rollouts(model, 1, gconfig, SamplerConfig(seed=3), book, 4):
                    for idx, step in enumerate(result.trace):
                        fresh = guided_step(
                            model, 1, list(result.maps[:idx]), gconfig, book=book,
                            plan=step.plan,
                        )
                        assert fresh.k == step.k and fresh.plan == step.plan
                        assert same_bits(fresh.logits, step.logits)
                        for name in ("cond_gen", "null_gen", "cond_corr", "null_corr"):
                            a = getattr(fresh.branches, name)
                            b = getattr(step.branches, name)
                            assert (a is None) == (b is None)
                            assert a is None or same_bits(a, b)
                    decoded = decode_maps(list(result.maps), model.schedule, book)
                    assert same_bits(result.latent, decoded)
                    if lam > 0 and mask is None:
                        assert result.trace[-1].plan is not None


class TestRolloutLaw:
    def test_unguided_law_matches_model_joint(self, m1, m1_book):
        law = rollout_distribution(m1, 0, GuidanceConfig(), SamplerConfig(), m1_book)
        expected = {
            ((0,), (0,)): 0.75 * 0.6,
            ((0,), (1,)): 0.75 * 0.4,
            ((1,), (0,)): 0.25 * 0.2,
            ((1,), (1,)): 0.25 * 0.8,
        }
        got = law.as_dict()
        assert set(got) == set(expected)
        for seq, p in expected.items():
            assert got[seq] == pytest.approx(p, abs=1e-12)

    def test_guided_law_hand_derived(self, m1, m1_book):
        gconfig = GuidanceConfig(lam=1.0, reference="exact-marginal")
        law = rollout_distribution(m1, 0, gconfig, SamplerConfig(), m1_book)
        aug0 = np.asarray([0.72, 0.32]) / 1.04
        aug1 = np.asarray([0.08, 1.28]) / 1.36
        expected = {
            ((0,), (0,)): 0.75 * aug0[0],
            ((0,), (1,)): 0.75 * aug0[1],
            ((1,), (0,)): 0.25 * aug1[0],
            ((1,), (1,)): 0.25 * aug1[1],
        }
        for seq, p in expected.items():
            assert law.prob(seq) == pytest.approx(p, abs=1e-9)

    def test_truncation_shrinks_support(self, m1, m1_book):
        law = rollout_distribution(
            m1, 0, GuidanceConfig(), SamplerConfig(top_k=1), m1_book
        )
        assert law.as_dict() == {((0,), (0,)): 1.0}

    def test_stochastic_corruption_has_no_law(self, small_count, small_book):
        gconfig = GuidanceConfig(lam=1.0, fraction=0.5, reference="corrupted")
        with pytest.raises(IllDefinedLawError):
            rollout_distribution(small_count, 0, gconfig, SamplerConfig(), small_book)

    @pytest.fixture(scope="class")
    def three_scale_count(self):
        # V = 2 on (1,1),(1,2),(2,2): seven sites, 128 sequences.
        schedule = ScaleSchedule(((1, 1), (1, 2), (2, 2)))
        book = Codebook.seeded(3, 2, 2, seed=7)
        corpus = make_corpus(schedule, book, num_conditions=1, count=12, seed=5)
        model = fit_count_model(
            corpus, schedule, book, vocab=2, num_conditions=1,
            alpha=1.0, spec=SignatureSpec(bins=2, seed=0), embed_seed=0, embed_dim=4,
            include_null=True,
        )
        return model, book

    CORRUPTED = GuidanceConfig(lam=1.0, fraction=0.5, reference="corrupted")

    def test_fixed_plans_must_cover_every_guided_scale(self, three_scale_count):
        model, book = three_scale_count
        plan = plan_corruption(
            model.schedule, 2, 0.5, self.CORRUPTED.variant, seed=0, book=book
        )
        with pytest.raises(IllDefinedLawError, match="scale 3"):
            rollout_distribution(
                model, 0, self.CORRUPTED, SamplerConfig(), book, fixed_plans={2: plan}
            )
        with pytest.raises(IllDefinedLawError, match="scale 2"):
            rollout_distribution(
                model, 0, self.CORRUPTED, SamplerConfig(), book, fixed_plans={}
            )

    def test_mask_without_guided_scale_is_the_unguided_law(self, three_scale_count):
        model, book = three_scale_count
        masked = rollout_distribution(
            model, 0, replace(self.CORRUPTED, scale_mask={1}), SamplerConfig(), book
        )
        plain = rollout_distribution(
            model, 0, replace(self.CORRUPTED, lam=0.0), SamplerConfig(), book
        )
        assert len(plain.outcomes) == 128
        assert masked.outcomes == plain.outcomes
        assert np.array_equal(masked.probs, plain.probs)

    def test_fixed_plans_make_corrupted_law_exact(self, m1_book):
        from prefixlab.corruption import CorruptionVariant, plan_corruption
        from prefixlab.model import SignatureSpec, TokenMap, fit_count_model
        from prefixlab.tokenizer import ScaleSchedule

        sched = ScaleSchedule(((1, 1), (1, 1)))
        corpus = [
            (0, [TokenMap(1, np.asarray([[i % 2]])), TokenMap(2, np.asarray([[i % 2]]))])
            for i in range(4)
        ]
        model = fit_count_model(
            corpus, sched, m1_book, vocab=2, num_conditions=1,
            alpha=1.0, spec=SignatureSpec(bins=2, seed=0), embed_seed=11, embed_dim=4,
            include_null=True,
        )
        plan = plan_corruption(
            sched, 2, 1.0, CorruptionVariant.UNIFORM_PREFIX, seed=3, book=m1_book
        )
        gconfig = GuidanceConfig(lam=1.0, fraction=1.0, reference="corrupted")
        law = rollout_distribution(
            model, 0, gconfig, SamplerConfig(), m1_book, fixed_plans={2: plan},
        )
        assert sum(law.probs) == pytest.approx(1.0, abs=1e-12)
        assert len(law.outcomes) == 4
