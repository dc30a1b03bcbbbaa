"""Truncation rules, rollouts, trace replay and exact rollout laws."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prefixlab.corruption import CorruptionVariant, plan_corruption, selection_size
from prefixlab.errors import (
    DegenerateDistributionError,
    IllDefinedLawError,
    InvalidInputError,
    TooLargeError,
)
from prefixlab.guidance import GuidanceConfig, guided_step
from prefixlab.oracle import prefix_marginal_sites, softmax
from prefixlab.sampler import (
    SamplerConfig,
    rollout_distribution,
    rollouts,
    trace_from_csv,
    trace_to_csv,
    truncate_and_sample,
    truncated_law,
    truncated_site_law,
)
from prefixlab.model import (
    SignatureSpec,
    build_tabular,
    fit_count_model,
    prefix_maps,
    tabular_from_rows,
)
from prefixlab.tokenizer import Codebook, ScaleSchedule, TokenMap, decode_maps
from tests.conftest import make_corpus, multisite_schedules
from tests.test_oracle import reference_chain_law


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

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("seed", True), ("top_k", 1.5), ("top_k", True),
    ])
    def test_rejects_non_integer_fields_by_name(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            SamplerConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        config = SamplerConfig(top_k=np.int64(2), seed=np.uint32(3))
        assert (config.top_k, config.seed) == (2, 3)

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

    def test_full_top_p_keeps_a_token_below_rounding(self):
        # exp(-35) is below 1e-15: the top-p threshold must not cut it.
        law = truncated_site_law(np.asarray([0.0, -35.0]), SamplerConfig())
        assert law[1] > 0
        np.testing.assert_allclose(law, softmax(np.asarray([0.0, -35.0])), rtol=1e-12)

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

    def test_nan_logit_rejected_by_name(self):
        with pytest.raises(DegenerateDistributionError, match="NaN"):
            truncated_law(np.asarray([np.nan, 0.0]), SamplerConfig())

    def test_overflowing_guidance_rejected_by_name(self, small_tabular):
        # gamma 1e308 overflows the guided logits, and inf - inf is NaN.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DegenerateDistributionError, match="NaN"):
            rollout_distribution(small_tabular, 0, GuidanceConfig(gamma=1e308),
                                 SamplerConfig())

    @pytest.mark.parametrize("logits, temperature", [
        ([np.inf, 0.0], 1.0), ([1e308, 0.0], 0.1), ([-1e308, -np.inf], 0.1)])
    def test_site_without_a_law_rejected(self, logits, temperature):
        # +inf, also where dividing by the temperature overflows, and a site
        # whose every scaled logit is -inf.
        with np.errstate(over="ignore"), pytest.raises(DegenerateDistributionError):
            truncated_law(np.asarray(logits), SamplerConfig(temperature=temperature))

    def test_overflow_to_plus_inf_drops_no_mass_from_the_law(self):
        # gamma 1.7e308 overflows a guided logit of condition 0 at prefix
        # (0,) to +inf, and none to NaN. The exact law and the sampler both
        # reject the step instead of dropping that prefix's mass.
        schedule = ScaleSchedule(((1, 1), (1, 1)))
        rows = {(c, 1, ()): [0.5, 0.5] for c in (0, 1)}
        rows.update({(0, 2, ((0,),)): [0.6, 0.4], (1, 2, ((0,),)): [0.05, 0.95],
                     (0, 2, ((1,),)): [0.3, 0.7], (1, 2, ((1,),)): [0.4, 0.6]})
        model = tabular_from_rows(schedule, 2, 2, rows)
        book = Codebook.seeded(2, 2, 2, seed=7)
        config = GuidanceConfig(gamma=1.7e308)
        with np.errstate(over="ignore", invalid="ignore"):
            logits = guided_step(model, 0, ((0,),), config).logits
            assert np.isposinf(logits).any() and not np.isnan(logits).any()
            with pytest.raises(DegenerateDistributionError, match=r"\+inf"):
                rollout_distribution(model, 0, config, SamplerConfig())
            with pytest.raises(DegenerateDistributionError, match=r"\+inf"):
                rollouts(model, 0, [(config, SamplerConfig())], book, 4)

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
    if config.top_p >= 1:
        cutoff = keep
    else:
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
        result = rollouts(m1, 0, [(GuidanceConfig(), config)], m1_book, 1)[0][0]
        # Argmax path: r1 = 0 (0.75), then r2 = 0 (0.6).
        assert [m.key() for m in result.maps] == [(0,), (0,)]

    def test_rollout_seed_determinism(self, m1, m1_book):
        a = rollouts(m1, 0, [(GuidanceConfig(), SamplerConfig(seed=3))], m1_book, 1)[0][0]
        b = rollouts(m1, 0, [(GuidanceConfig(), SamplerConfig(seed=3))], m1_book, 1)[0][0]
        assert [m.key() for m in a.maps] == [m.key() for m in b.maps]
        np.testing.assert_array_equal(a.latent, b.latent)

    def test_replay_is_bit_exact(self, small_count, small_book):
        gconfig = GuidanceConfig(gamma=0.5, lam=1.0, fraction=0.5, reference="corrupted")
        result = rollouts(small_count, 1, [(gconfig, SamplerConfig(seed=9))], small_book, 1)[0][0]
        for idx, recorded in enumerate(result.trace):
            replayed = guided_step(
                small_count, result.condition, list(result.maps[:idx]), gconfig,
                plan=recorded.plans[0],
            )
            assert np.array_equal(recorded.logits, replayed.logits)

    def test_trace_csv_roundtrip(self, m1, m1_book, small_tabular, small_book, tmp_path):
        # m1 is 1x1 at both scales; small_tabular has a 2x2 second scale.
        for model, book in ((m1, m1_book), (small_tabular, small_book)):
            result = rollouts(model, 0, [(GuidanceConfig(), SamplerConfig(seed=2))], book, 1)[0][0]
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
    """One sample at a time: the loop the batched rollouts must reproduce. A
    step that draws a corruption plan draws it from the sample's stream."""
    out = []
    for i in range(count):
        rng = np.random.default_rng(sconfig.seed + i)
        maps, steps = [], []
        for k in range(1, model.schedule.num_scales + 1):
            plan_seed = int(rng.integers(2**32))
            plan = plan_corruption(
                model.schedule, k, gconfig.fraction, gconfig.variant, plan_seed, book=book
            ) if gconfig.draws_plan(k, model.schedule) else None
            step = guided_step(model, condition, maps, gconfig, plan=plan)
            ids = truncate_and_sample(step.logits[None], sconfig, [rng])[0]
            maps.append(TokenMap(k, ids))
            steps.append(step)
        latent = decode_maps(maps, model.schedule, book)
        out.append((maps, steps, latent, sconfig.seed + i))
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


BRANCHES = ("cond_gen", "null_gen", "cond_corr", "null_corr")


def assert_same_rollouts(got, expected):
    """Batched results equal the one-sample loop's, step by step and branch
    by branch, bit for bit."""
    assert len(got) == len(expected)
    for result, (maps, steps, latent, seed) in zip(got, expected):
        assert result.seed == seed
        assert [m.k for m in result.maps] == [m.k for m in maps]
        assert all(same_bits(a.ids, b.ids) for a, b in zip(result.maps, maps))
        assert same_bits(result.latent, latent)
        for got_step, step in zip(result.trace, steps, strict=True):
            assert got_step.k == step.k
            assert same_bits(got_step.logits, step.logits)
            assert got_step.plans == step.plans
            assert got_step.evaluations == step.evaluations
            for name in BRANCHES:
                a, b = getattr(got_step.branches, name), getattr(step.branches, name)
                assert (a is None) == (b is None)
                assert a is None or same_bits(a, b)


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
        got = rollouts(model, 1, [(gconfig, sconfig)], small_book, count)[0]
        expected = reference_rollouts(model, 1, gconfig, sconfig, small_book, count)
        assert len(got) == count
        for result, (maps, steps, latent, seed) in zip(got, expected):
            assert result.seed == seed and result.condition == 1
            assert [m.k for m in result.maps] == [m.k for m in maps]
            assert all(same_bits(a.ids, b.ids) for a, b in zip(result.maps, maps))
            for got_step, step in zip(result.trace, steps, strict=True):
                assert got_step.k == step.k
                assert same_bits(got_step.logits, step.logits)
                assert got_step.plans == step.plans
                assert got_step.evaluations == step.evaluations
            assert same_bits(result.latent, latent)
        if fixture == "small_count":
            assert any(r.trace[-1].plans[0] is not None for r in got)

    @given(
        multisite_schedules(),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from(list(CorruptionVariant)),
        st.integers(0, 2**16),
        st.integers(1, 9),
    )
    @settings(max_examples=30, deadline=None)
    def test_no_site_scale_shares_its_step(self, schedule, gamma, variant, seed, count):
        # n_p selects no site at scale 2 and, on three scales, one site at
        # scale 3: 1 / (2 * prefix sites) rounds half up to one there, and
        # scale 2 has fewer prefix sites.
        last = schedule.prefix_sites(schedule.num_scales)
        fraction = 1 / (2 * last + (schedule.num_scales == 2))
        assert selection_size(schedule, 2, fraction) == 0
        if schedule.num_scales == 3:
            assert selection_size(schedule, 3, fraction) == 1
        book = Codebook.seeded(schedule.num_scales, 3, 2, seed=7)
        corpus = make_corpus(schedule, book, num_conditions=2, count=12, seed=seed)
        model = fit_count_model(
            corpus, schedule, book, vocab=3, num_conditions=2,
            alpha=1.0, spec=SignatureSpec(bins=2, seed=0), embed_seed=0, embed_dim=3,
            include_null=True,
        )
        gconfig = GuidanceConfig(gamma=gamma, lam=1.0, fraction=fraction, variant=variant,
                                 reference="corrupted")
        sconfig = SamplerConfig(seed=seed)
        stacks = []  # the scale of each row of each stacked step
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("prefixlab.sampler.guided_step",
                       lambda model, c, signed, *args, **kwargs:
                       stacks.append([signed.embedding.step] * len(signed.signature))
                       or guided_step(model, c, signed, *args, **kwargs))
            got = rollouts(model, 1, [(gconfig, sconfig)], book, count)[0]
        assert_same_rollouts(got, reference_rollouts(model, 1, gconfig, sconfig, book, count))
        clean = set(model.embed([r.maps[:1] for r in got]).signature)
        draws = variant is CorruptionVariant.UNIFORM_PREFIX
        assert [set(rows) for rows in stacks] == [{k} for k in range(1, schedule.num_scales + 1)]
        scales = [k for rows in stacks for k in rows]
        assert scales.count(1) == 1
        assert scales.count(2) == (count if draws else len(clean))
        assert scales.count(3) == (count if schedule.num_scales == 3 else 0)
        for r in got:
            assert (r.trace[1].plans[0] is not None) == draws
            if schedule.num_scales == 3:
                assert len(r.trace[2].plans[0].selected) == 1

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_raises(self, count, m1, m1_book):
        with pytest.raises(InvalidInputError, match="count"):
            rollouts(m1, 0, [(GuidanceConfig(), SamplerConfig())], m1_book, count)[0]

    def test_count_model_rejects_a_codebook_of_another_latent_size(self, small_count):
        schedule = small_count.schedule
        book = Codebook.seeded(schedule.num_scales, small_count.vocab, 3, seed=0)
        with pytest.raises(InvalidInputError, match="reads only the codebook it was fitted on"):
            rollouts(small_count, 0, [(GuidanceConfig(), SamplerConfig())], book, 1)[0]

    def test_count_model_rejects_a_foreign_codebook_of_its_own_shape(
        self, small_count, small_book
    ):
        # Every shape fits, so only the model's own codebook tells: read
        # with another, a count model's samples would be decoded and
        # signed with codes it was not fitted on.
        book = Codebook.seeded(small_book.num_scales, small_book.vocab, small_book.latent_dim, 99)
        lane = [(GuidanceConfig(), SamplerConfig())]
        with pytest.raises(InvalidInputError, match="reads only the codebook it was fitted on"):
            rollouts(small_count, 0, lane, book, 1)
        assert len(rollouts(small_count, 0, lane, small_book, 1)[0]) == 1


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
                for result in rollouts(model, 1, [(gconfig, SamplerConfig(seed=3))], book, 4)[0]:
                    for idx, step in enumerate(result.trace):
                        fresh = guided_step(
                            model, 1, list(result.maps[:idx]), gconfig,
                            plan=step.plans[0],
                        )
                        assert fresh.k == step.k and fresh.plans == step.plans
                        assert same_bits(fresh.logits, step.logits)
                        for name in ("cond_gen", "null_gen", "cond_corr", "null_corr"):
                            a = getattr(fresh.branches, name)
                            b = getattr(step.branches, name)
                            assert (a is None) == (b is None)
                            assert a is None or same_bits(a, b)
                    decoded = decode_maps(list(result.maps), model.schedule, book)
                    assert same_bits(result.latent, decoded)
                    if lam > 0 and mask is None:
                        assert result.trace[-1].plans[0] is not None


    @pytest.mark.parametrize("kind", ["tabular", "count"])
    def test_carried_stack_equals_each_sample_embedded_afresh(
        self, kind, request, multisite_book, monkeypatch
    ):
        # The one signed stack rollouts carry holds, at every scale, each
        # sample's own signature in its row (a tabular model's prefix key),
        # and a count model's prefix embedding too.
        model, book = request.getfixturevalue(f"multisite_{kind}"), multisite_book
        if kind == "tabular":
            # The exact-marginal pair's walks sign and extend stacks too;
            # with every marginal kept first, only the carried ones count.
            for k in range(1, model.schedule.num_scales + 1):
                prefix_marginal_sites(model, 1, k)
        stacks = []
        for name in ("embed", "extend"):
            method = getattr(type(model), name)
            monkeypatch.setattr(type(model), name, lambda self, *a, method=method:
                                stacks.append(method(self, *a)) or stacks[-1])
        reference = "corrupted" if kind == "count" else "exact-marginal"
        gconfig = GuidanceConfig(lam=1.0, fraction=0.5, reference=reference)
        lanes = [(gconfig, SamplerConfig(seed=3)),
                 (replace(gconfig, lam=0.0), SamplerConfig(seed=8))]
        results = [r for lane in rollouts(model, 1, lanes, book, 3) for r in lane]
        monkeypatch.undo()
        assert len(stacks) == model.schedule.num_scales
        for k, signed in enumerate(stacks, start=1):
            assert signed.step == k and len(signed.signature) == len(results)
            for i, result in enumerate(results):
                fresh = model.embed([result.maps[: k - 1]])
                assert signed.signature[i] == fresh.signature[0]
                if kind == "tabular":
                    assert signed.embedding is fresh.embedding is None
                    continue
                for a, b in zip(signed.embedding.grids + signed.embedding.pooled,
                                fresh.embedding.grids + fresh.embedding.pooled):
                    assert same_bits(a[i], b[0])

    @pytest.mark.parametrize("kind", ["tabular", "count"])
    def test_each_step_takes_the_carried_prefix(
        self, kind, multisite_count, multisite_book, monkeypatch
    ):
        # The steps of either model kind take its signed stack as their
        # prefix at every scale: a tabular stack's signatures are its keys.
        import prefixlab.sampler
        from prefixlab.model import SignedEmbedding

        book = multisite_book if kind == "count" else Codebook.seeded(3, 2, 2, seed=7)
        model = multisite_count if kind == "count" else build_tabular(
            ScaleSchedule(((1, 1), (1, 2), (2, 2))), vocab=2, num_conditions=2, seed=0)
        reference = "corrupted" if kind == "count" else "exact-marginal"
        gconfig = GuidanceConfig(gamma=1.0, lam=1.0, fraction=0.5, reference=reference)
        prefixes = []
        step = prefixlab.sampler.guided_step
        monkeypatch.setattr(prefixlab.sampler, "guided_step",
                            lambda m, c, prefix, *a, **kw: prefixes.append(prefix)
                            or step(m, c, prefix, *a, **kw))
        rollouts(model, 1, [(gconfig, SamplerConfig(seed=3))], book, 4)
        assert len(prefixes) == model.schedule.num_scales
        for k, prefix in enumerate(prefixes, start=1):
            assert isinstance(prefix, SignedEmbedding) and prefix.step == k
            if kind == "count":
                assert prefix.embedding.step == k
            else:
                assert prefix.embedding is None
                assert all(isinstance(key, tuple) and len(key) == k - 1
                           for key in prefix.signature)


class TestSharedSteps:
    """Samples whose step has the same branch input share one guided step;
    a step that draws a corruption plan runs once per sample. Either way
    every output equals a one-sample-at-a-time ``guided_step`` loop."""

    @given(
        multisite_schedules(max_prefix_sites=5),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 1.5]),
        st.sampled_from([None, 2]),
        st.integers(0, 2**16),
        st.integers(1, 9),
    )
    @settings(max_examples=40, deadline=None)
    def test_tabular_model_equals_one_sample_loop(
        self, schedule, gamma, lam, top_k, seed, count
    ):
        book = Codebook.seeded(schedule.num_scales, 2, 2, seed=7)
        model = build_tabular(schedule, vocab=2, num_conditions=2, seed=seed)
        gconfig = GuidanceConfig(gamma=gamma, lam=lam, reference="exact-marginal")
        sconfig = SamplerConfig(top_k=top_k, seed=seed)
        assert_same_rollouts(
            rollouts(model, 1, [(gconfig, sconfig)], book, count)[0],
            reference_rollouts(model, 1, gconfig, sconfig, book, count),
        )

    @given(
        multisite_schedules(),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from(list(CorruptionVariant)),
        # 0.1 of at most 9 prefix sites selects no site.
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        st.sampled_from([None, frozenset({2})]),
        st.integers(0, 2**16),
        st.integers(1, 9),
    )
    @settings(max_examples=40, deadline=None)
    def test_count_model_equals_one_sample_loop(
        self, schedule, gamma, lam, variant, fraction, mask, seed, count
    ):
        book = Codebook.seeded(schedule.num_scales, 3, 2, seed=7)
        corpus = make_corpus(schedule, book, num_conditions=2, count=12, seed=seed)
        model = fit_count_model(
            corpus, schedule, book, vocab=3, num_conditions=2,
            alpha=1.0, spec=SignatureSpec(bins=2, seed=0), embed_seed=0, embed_dim=3,
            include_null=True,
        )
        gconfig = GuidanceConfig(gamma=gamma, lam=lam, fraction=fraction, variant=variant,
                                 scale_mask=mask, reference="corrupted")
        sconfig = SamplerConfig(seed=seed)
        assert_same_rollouts(
            rollouts(model, 1, [(gconfig, sconfig)], book, count)[0],
            reference_rollouts(model, 1, gconfig, sconfig, book, count),
        )

    def test_one_guided_step_per_distinct_branch_input(
        self, multisite_count, multisite_book, small_tabular, small_book, monkeypatch
    ):
        stacks = []  # the plans of the rows of each stacked step

        def counted(model, c, prefixes, configs, **kwargs):
            stacks.append(kwargs["plan"] or [None] * len(configs))
            return guided_step(model, c, prefixes, configs, **kwargs)

        monkeypatch.setattr("prefixlab.sampler.guided_step", counted)
        # Tabular: scale 1 has one input; scale 2 one per distinct scale-1 map.
        lane = (GuidanceConfig(gamma=1.0, lam=1.0), SamplerConfig(seed=2))
        results = rollouts(small_tabular, 0, [lane], small_book, 16)[0]
        first = {r.maps[0].key() for r in results}
        calls = [plan for plans in stacks for plan in plans]
        assert len(stacks) == small_tabular.schedule.num_scales
        assert len(calls) == 1 + len(first) < 2 * 16
        assert calls == [None] * len(calls)
        for r in results:
            assert r.trace[0] is results[0].trace[0]
            twin = next(o for o in results if o.maps[0].key() == r.maps[0].key())
            assert r.trace[1] is twin.trace[1]
            assert not r.trace[1].logits.flags.writeable
        # Count model: the corrupted steps at scales 2 and 3 run under one
        # plan each per sample, each from its sample's stream; scale 1 is
        # shared.
        stacks.clear()
        gconfig = GuidanceConfig(lam=1.0, fraction=0.5, reference="corrupted")
        results = rollouts(multisite_count, 0, [(gconfig, SamplerConfig(seed=2))],
                           multisite_book, 6)[0]
        calls = [plan for plans in stacks for plan in plans]
        assert len(stacks) == multisite_count.schedule.num_scales
        assert calls[0] is None and None not in calls[1:]
        assert len(calls) == 1 + 2 * 6
        assert len({id(r.trace[2]) for r in results}) == 6
        assert len({r.trace[2].plans[0].seed for r in results}) == 6


class TestLanes:
    """Lanes rolled out together, one guidance config per lane, equal each
    lane rolled out alone, bit for bit."""

    @given(
        st.sampled_from(["tabular", "count"]),
        multisite_schedules(max_prefix_sites=5),
        st.sampled_from([0.0, 1.0]),
        st.lists(st.tuples(
            st.sampled_from([0.0, 0.5, 1.5]),
            st.sampled_from(list(CorruptionVariant)),
            # 0.1 of at most 5 prefix sites selects no site.
            st.sampled_from([0.1, 0.5, 1.0]),
            st.sampled_from([None, frozenset({2}), frozenset({3})]),
            st.integers(0, 2**16),
        ), min_size=1, max_size=4),
        st.integers(0, 2**16),
        st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_lanes_equal_each_lane_alone(self, kind, schedule, gamma, lanes, seed, count):
        vocab = 2 if kind == "tabular" else 3
        book = Codebook.seeded(schedule.num_scales, vocab, 2, seed=7)
        if kind == "tabular":
            model = build_tabular(schedule, vocab=vocab, num_conditions=2, seed=seed)
            reference, sconfig = "exact-marginal", SamplerConfig(top_k=2, top_p=0.9)
        else:
            corpus = make_corpus(schedule, book, num_conditions=2, count=12, seed=seed)
            model = fit_count_model(
                corpus, schedule, book, vocab=vocab, num_conditions=2, alpha=1.0,
                spec=SignatureSpec(bins=2, seed=0), embed_seed=0, embed_dim=3,
                include_null=True,
            )
            reference, sconfig = "corrupted", SamplerConfig(temperature=0.8)
        pairs = [
            (GuidanceConfig(gamma=gamma, lam=lam, fraction=fraction, variant=variant,
                            scale_mask=mask, reference=reference),
             replace(sconfig, seed=lane_seed))
            for lam, variant, fraction, mask, lane_seed in lanes
        ]
        got = rollouts(model, 1, pairs, book, count)
        assert len(got) == len(pairs)
        for results, (gconfig, lane_sconfig) in zip(got, pairs):
            assert_same_rollouts(
                results, reference_rollouts(model, 1, gconfig, lane_sconfig, book, count))

    @pytest.mark.parametrize("kind", ["tabular", "count"])
    def test_lanes_keep_their_own_strength_and_seed(
        self, kind, small_tabular, small_book, multisite_count, multisite_book
    ):
        # Every lane contrasts at every scale after the first, each with its
        # own strength, and each is seeded from its own sampler config.
        if kind == "tabular":
            model, book, reference = small_tabular, small_book, "exact-marginal"
        else:
            model, book, reference = multisite_count, multisite_book, "corrupted"
        pairs = [(GuidanceConfig(gamma=1.0, lam=lam, fraction=0.5, reference=reference),
                  SamplerConfig(seed=seed)) for lam, seed in ((0.5, 3), (1.5, 40), (0.0, 7))]
        got = rollouts(model, 0, pairs, book, 3)
        for results, (gconfig, sconfig) in zip(got, pairs):
            assert_same_rollouts(
                results, reference_rollouts(model, 0, gconfig, sconfig, book, 3))
        assert [r.seed for results in got for r in results] == [3, 4, 5, 40, 41, 42, 7, 8, 9]

    @pytest.mark.parametrize("gchange, schange, message", [
        # The guidance's shared fields are checked by the stacked step.
        ({"gamma": 1.0}, {}, "rows of a stack share gamma and reference"),
        ({"reference": "corrupted"}, {}, "rows of a stack share gamma and reference"),
        ({}, {"temperature": 0.5}, "lanes of a rollout share"),
        ({}, {"top_k": 1}, "lanes of a rollout share"),
        ({}, {"top_p": 0.5}, "lanes of a rollout share"),
    ])
    def test_mismatched_lanes_are_rejected(self, gchange, schange, message, m1, m1_book):
        lane = (GuidanceConfig(lam=1.0), SamplerConfig(seed=1))
        other = (replace(lane[0], lam=0.5, **gchange), replace(lane[1], seed=9, **schange))
        rollouts(m1, 0, [lane, (replace(lane[0], lam=0.5), SamplerConfig(seed=9))], m1_book, 2)
        with pytest.raises(InvalidInputError, match=message):
            rollouts(m1, 0, [lane, other], m1_book, 2)

    def test_no_lane_is_rejected(self, m1, m1_book):
        with pytest.raises(InvalidInputError, match="at least one lane"):
            rollouts(m1, 0, [], m1_book, 2)


class TestRolloutLaw:
    @given(
        st.sampled_from([((1, 1), (1, 2)), ((1, 2), (2, 2)), ((1, 1), (1, 2), (2, 2)),
                         ((1, 1), (2, 1), (2, 2))]),
        st.integers(2, 3),
        st.integers(0, 2**16),
        st.sampled_from([0.5, 1.5]),
        st.sampled_from([0.8, 2.0]),
        st.sampled_from([SamplerConfig(), SamplerConfig(top_k=2, top_p=0.9, temperature=0.8),
                         SamplerConfig(top_p=0.7)]),
        st.one_of(st.none(), st.sampled_from(["exact-marginal", *CorruptionVariant])),
    )
    @settings(max_examples=30, deadline=None)
    def test_law_equals_a_per_prefix_chain_bit_for_bit(
        self, dims, vocab, seed, gamma, lam, sconfig, count
    ):
        # ``count`` is None for a tabular model under the exact-marginal
        # reference, else a count model's reference: the exact marginal, or
        # the prefix corrupted by this variant under a fixed plan at each
        # guided scale.
        schedule = ScaleSchedule(dims)
        assume(vocab ** sum(h * w for h, w in dims) <= 243)
        book = Codebook.seeded(len(dims), vocab, 2, seed=0)
        gconfig = GuidanceConfig(gamma=gamma, lam=lam, reference="exact-marginal")
        plans = {}
        if count is None:
            model = build_tabular(schedule, vocab, 2, seed=seed)
        else:
            corpus = make_corpus(schedule, book, num_conditions=2, count=12, seed=seed)
            model = fit_count_model(
                corpus, schedule, book, vocab=vocab, num_conditions=2, alpha=1.0,
                spec=SignatureSpec(bins=3, seed=0), embed_seed=seed, embed_dim=3,
                include_null=True)
        if count not in (None, "exact-marginal"):
            gconfig = replace(gconfig, fraction=0.5, variant=count, reference="corrupted")
            plans = {k: plan_corruption(schedule, k, 0.5, count, seed + k, book=book)
                     for k in range(2, len(dims) + 1)}

        def step_law(key):
            step = guided_step(model, 1, prefix_maps(key, schedule), gconfig,
                               plan=plans.get(len(key) + 1))
            return truncated_law(step.logits, sconfig).reshape(-1, vocab)

        pairs = reference_chain_law(step_law, len(dims))
        probs = np.asarray([p for _, p in pairs])
        law = rollout_distribution(model, 1, gconfig, sconfig, fixed_plans=plans)
        assert law.outcomes == tuple(key for key, _ in pairs)
        assert np.array_equal(law.probs.view(np.int64), (probs / probs.sum()).view(np.int64))

    def test_unguided_law_matches_model_joint(self, m1):
        law = rollout_distribution(m1, 0, GuidanceConfig(), SamplerConfig())
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

    def test_guided_law_hand_derived(self, m1):
        gconfig = GuidanceConfig(lam=1.0, reference="exact-marginal")
        law = rollout_distribution(m1, 0, gconfig, SamplerConfig())
        aug0 = np.asarray([0.72, 0.32]) / 1.04
        aug1 = np.asarray([0.08, 1.28]) / 1.36
        expected = {
            ((0,), (0,)): 0.75 * aug0[0],
            ((0,), (1,)): 0.75 * aug0[1],
            ((1,), (0,)): 0.25 * aug1[0],
            ((1,), (1,)): 0.25 * aug1[1],
        }
        assert law.as_dict() == pytest.approx(expected, abs=1e-9)

    def test_truncation_shrinks_support(self, m1):
        law = rollout_distribution(
            m1, 0, GuidanceConfig(), SamplerConfig(top_k=1)
        )
        assert law.as_dict() == {((0,), (0,)): 1.0}

    @pytest.fixture(scope="class")
    def no_site_count(self):
        # V = 2, C = 2 on (1,1),(2,2): the one guided step has one prefix
        # site, and n_p = 0.25 selects none of it.
        schedule = ScaleSchedule(((1, 1), (2, 2)))
        book = Codebook.seeded(2, 2, 2, seed=7)
        corpus = make_corpus(schedule, book, num_conditions=2, count=12, seed=5)
        model = fit_count_model(
            corpus, schedule, book, vocab=2, num_conditions=2,
            alpha=1.0, spec=SignatureSpec(bins=2, seed=0), embed_seed=0, embed_dim=4,
            include_null=True,
        )
        return model, book

    @pytest.mark.parametrize("variant", list(CorruptionVariant))
    def test_scale_that_selects_no_site_has_an_exact_law(self, no_site_count, variant):
        model, book = no_site_count
        gconfig = GuidanceConfig(gamma=1.0, lam=1.0, fraction=0.25, variant=variant,
                                 reference="corrupted")
        if variant is CorruptionVariant.UNIFORM_PREFIX:
            # It draws whole token grids whatever the selection.
            with pytest.raises(IllDefinedLawError, match="scale 2"):
                rollout_distribution(model, 1, gconfig, SamplerConfig())
            return
        empty = plan_corruption(model.schedule, 2, 0.25, variant, seed=0, book=book)
        assert empty.selected == ()
        law = rollout_distribution(model, 1, gconfig, SamplerConfig())
        fixed = rollout_distribution(model, 1, gconfig, SamplerConfig(),
                                     fixed_plans={2: empty})
        assert len(law.outcomes) == 2 ** 5
        assert law.outcomes == fixed.outcomes
        assert np.array_equal(law.probs.view(np.int64), fixed.probs.view(np.int64))

    def test_prefix_level_past_the_cap_raises(self, monkeypatch):
        # V = 3 on (1,1),(2,2): the walk forms one level of 3 prefixes; the
        # 243 sequences of the last level are the law's outcomes, not capped.
        schedule = ScaleSchedule(((1, 1), (2, 2)))
        book = Codebook.seeded(2, 3, 2, seed=7)
        model = fit_count_model(
            make_corpus(schedule, book, num_conditions=2, count=12, seed=5), schedule, book,
            vocab=3, num_conditions=2, alpha=1.0, spec=SignatureSpec(bins=2, seed=0),
            embed_seed=0, embed_dim=4, include_null=True,
        )
        gconfig = GuidanceConfig(lam=1.0, fraction=0.0, reference="corrupted")
        monkeypatch.setattr("prefixlab.oracle.PREFIX_STATE_CAP", 2)
        with pytest.raises(TooLargeError, match="has 3 states, cap is 2"):
            rollout_distribution(model, 0, gconfig, SamplerConfig())
        monkeypatch.setattr("prefixlab.oracle.PREFIX_STATE_CAP", 3)
        law = rollout_distribution(model, 0, gconfig, SamplerConfig())
        assert len(law.outcomes) == 3 ** 5

    def test_stochastic_corruption_has_no_law(self, small_count):
        gconfig = GuidanceConfig(lam=1.0, fraction=0.5, reference="corrupted")
        with pytest.raises(IllDefinedLawError):
            rollout_distribution(small_count, 0, gconfig, SamplerConfig())

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
                model, 0, self.CORRUPTED, SamplerConfig(), fixed_plans={2: plan}
            )
        with pytest.raises(IllDefinedLawError, match="scale 2"):
            rollout_distribution(
                model, 0, self.CORRUPTED, SamplerConfig(), fixed_plans={}
            )

    def test_mask_without_guided_scale_is_the_unguided_law(self, three_scale_count):
        model, _ = three_scale_count
        masked = rollout_distribution(
            model, 0, replace(self.CORRUPTED, scale_mask={1}), SamplerConfig()
        )
        plain = rollout_distribution(
            model, 0, replace(self.CORRUPTED, lam=0.0), SamplerConfig()
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
            model, 0, gconfig, SamplerConfig(), fixed_plans={2: plan},
        )
        assert sum(law.probs) == pytest.approx(1.0, abs=1e-12)
        assert len(law.outcomes) == 4
