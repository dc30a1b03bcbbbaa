"""Brute-force marginalization oracles and the identity report."""

import csv
import dataclasses
import re
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prefixlab.errors import InvalidInputError
from prefixlab.guidance import GuidanceConfig
from prefixlab.model import (
    NULL_CONDITION,
    SignatureSpec,
    TabularModel,
    build_tabular,
    enumerate_prefix_keys,
    fit_count_model,
    predict_logits,
    prefix_maps,
)
from prefixlab.oracle import (
    Distribution,
    VerifySpec,
    augmented_cfg,
    augmented_vpg,
    chain_law,
    enumerate_prefixes,
    kl_divergence,
    prefix_marginal,
    prefix_marginal_sites,
    prefix_posterior,
    softmax,
    step_map_distribution,
    verify_identities,
    write_report_csv,
)
from prefixlab.sampler import SamplerConfig, rollout_distribution
from prefixlab.tokenizer import Codebook, ScaleSchedule
from tests.conftest import make_corpus, multisite_schedules


class TestDistribution:
    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            Distribution((0, 1), np.asarray([1.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            Distribution((0, 1), np.asarray([0.6, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            Distribution((0, 1), np.asarray([1.2, -0.2]))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Distribution(("a", "b"), np.asarray([np.nan, np.nan]))

    def test_lookup(self):
        d = Distribution(("a", "b"), np.asarray([0.3, 0.7]))
        assert d.as_dict() == {"a": 0.3, "b": 0.7}


class TestFixtureM1:
    def test_first_scale_row(self, m1):
        np.testing.assert_allclose(m1.row(0, 1, ()), [[[0.75, 0.25]]], atol=1e-12)

    def test_prefix_marginal(self, m1):
        marg = prefix_marginal(m1, 0, k=2)
        # 0.75 * 0.6 + 0.25 * 0.2 = 0.5 for token 0.
        np.testing.assert_allclose(marg.probs, [0.5, 0.5], atol=1e-12)
        sites = prefix_marginal_sites(m1, 0, k=2)
        np.testing.assert_allclose(sites, [[[0.5, 0.5]]], atol=1e-12)

    def test_prefix_posterior(self, m1):
        post = prefix_posterior(m1, 0, outcome=(0,), k=2)
        # p(r1=0 | r2=0) = 0.75 * 0.6 / 0.5 = 0.9.
        assert post.as_dict() == pytest.approx({((0,),): 0.9, ((1,),): 0.1}, abs=1e-12)

    def test_augmented_vpg_lambda_one(self, m1):
        aug = augmented_vpg(m1, 0, [(0,)], strength=1.0)
        # weights 0.6 * (0.6/0.5), 0.4 * (0.4/0.5) -> [0.72, 0.32] normalized.
        np.testing.assert_allclose(aug.probs, [0.72 / 1.04, 0.32 / 1.04], atol=1e-12)
        np.testing.assert_allclose(aug.probs, [0.6923, 0.3077], atol=1e-4)

    def test_augmented_vpg_zero_strength_is_base(self, m1):
        aug = augmented_vpg(m1, 0, [(1,)], strength=0.0)
        np.testing.assert_allclose(aug.probs, [0.2, 0.8], atol=1e-12)

    def test_single_condition_cfg_is_inert(self, m1):
        # With one class the uniform-prior marginal equals the class law.
        for gamma in (0.0, 1.0, 3.0):
            aug = augmented_cfg(m1, 0, [(0,)], strength=gamma)
            np.testing.assert_allclose(aug.probs, [0.6, 0.4], atol=1e-12)


class TestEnumeration:
    def test_step_map_distribution_products(self, small_tabular):
        dist = step_map_distribution(small_tabular, 0, ((1,),))
        row = small_tabular.row(0, 2, ((1,),)).reshape(-1, 3)
        assert len(dist.outcomes) == 3 ** 4
        combo = (0, 2, 1, 0)
        expected = np.prod(row[np.arange(4), combo])
        assert dist.as_dict()[combo] == pytest.approx(expected, rel=1e-12)

    def test_enumerate_prefixes_probabilities_sum_to_one(self, small_tabular):
        pairs = enumerate_prefixes(small_tabular, 1, k=3)
        assert len(pairs) == 3 * 3 ** 4
        assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-9)

    def test_null_row_uniform_prior(self, small_tabular):
        row = small_tabular.row(NULL_CONDITION, 1, ())
        expected = (small_tabular.row(0, 1, ()) + small_tabular.row(1, 1, ())) / 2
        np.testing.assert_allclose(row, expected)

    def test_augmented_cfg_two_conditions_hand_value(self, m1_schedule):
        from prefixlab.model import tabular_from_rows

        rows = {
            (0, 1, ()): [0.8, 0.2],
            (1, 1, ()): [0.2, 0.8],
        }
        for c in (0, 1):
            rows[(c, 2, ((0,),))] = [0.5, 0.5]
            rows[(c, 2, ((1,),))] = [0.5, 0.5]
        model = tabular_from_rows(m1_schedule, 2, 2, rows)
        aug = augmented_cfg(model, 0, [], strength=1.0)
        # reference = [0.5, 0.5]; weights 0.8 * 1.6, 0.2 * 0.4.
        np.testing.assert_allclose(aug.probs, [1.28 / 1.36, 0.08 / 1.36], atol=1e-12)
        np.testing.assert_allclose(aug.probs, [0.9412, 0.0588], atol=1e-4)


class TestKL:
    def test_zero_on_identical(self):
        p = np.asarray([0.25, 0.75])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_natural_log(self):
        p = np.asarray([0.5, 0.5])
        q = np.asarray([0.25, 0.75])
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(0.5 / 0.75)
        assert kl_divergence(p, q) == pytest.approx(expected, rel=1e-12)

    def test_observed_zero_masked_nan_kept(self):
        q = np.asarray([0.25, 0.75])
        assert kl_divergence(np.asarray([0.0, 1.0]), q) == pytest.approx(np.log(1 / 0.75))
        assert np.isnan(kl_divergence(np.asarray([np.nan, 1.0]), q))

    def test_softmax_normalizes(self):
        out = softmax(np.asarray([[1.0, 2.0, 3.0]]))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(out[0]) > 0)


class TestIdentityReport:
    def test_identities_hold_on_random_models(self):
        sched = ScaleSchedule(((1, 1), (1, 1)))
        for seed in range(3):
            model = build_tabular(sched, 3, 2, seed=seed)
            report = verify_identities([model], VerifySpec(tolerance=1e-9))
            assert report.failures() == []
            assert report.max_kl < 1e-12

    def test_identities_hold_on_multisite_scales(self, small_tabular):
        report = verify_identities(
            [small_tabular], VerifySpec(gammas=(0.0, 1.5), lambdas=(0.0, 1.0))
        )
        assert report.failures() == []

    def test_failures_listed_above_tolerance(self, m1):
        report = verify_identities([m1], VerifySpec())
        strict = dataclasses.replace(report, tolerance=-1.0)
        assert strict.failures() != []
        assert len(strict.failures()) == len(report.rows)

    @pytest.mark.parametrize(
        "name, broken, kinds",
        [
            ("extrapolate",
             lambda base, reference, s: (1 - s) * base + s * reference,
             {"cfg", "vpg", "composition"}),
            # Every guided law of the report is a composition, so a broken
            # composition fails the cfg and vpg rows too.
            ("compose_cfg_vpg",
             lambda b, gamma, lam: (b.cond_gen - gamma * (b.cond_gen - b.null_gen)
                                    - lam * (b.cond_gen - b.cond_corr)),
             {"cfg", "vpg", "composition"}),
        ],
    )
    def test_broken_combiner_fails(self, monkeypatch, small_tabular, name, broken, kinds):
        # The report checks the package's own rule, not a copy of it.
        from prefixlab import guidance

        monkeypatch.setattr(guidance, name, broken)
        report = verify_identities(
            [small_tabular], VerifySpec(gammas=(0.0, 1.5), lambdas=(0.0, 1.0))
        )
        assert report.failures() != []
        assert {r.kind for r in report.failures()} == kinds

    @pytest.mark.parametrize(
        "name, mutant",
        [
            # The null branch of each pair read at the condition.
            ("_pair",
             lambda pair: lambda evaluate, condition, needs_cfg: (
                 evaluate(condition), evaluate(condition) if needs_cfg else None)),
            # The null condition's exact marginal read at the condition.
            ("gather_branches",
             lambda gather: lambda *args, **kwargs: dataclasses.replace(
                 gather(*args, **kwargs), null_corr=gather(*args, **kwargs).cond_corr)),
        ],
    )
    def test_broken_branch_wiring_fails(self, monkeypatch, small_tabular, name, mutant):
        # The report composes the branches a tabular guided_step gathers, so
        # a fault in the step's wiring fails rows, not only a broken rule.
        from prefixlab import guidance

        monkeypatch.setattr(guidance, name, mutant(getattr(guidance, name)))
        report = verify_identities(
            [small_tabular], VerifySpec(gammas=(0.0, 1.5), lambdas=(0.0, 1.0))
        )
        assert {r.kind for r in report.failures()} >= {"composition"}

    def test_report_csv_layout(self, m1, tmp_path):
        report = verify_identities([m1], VerifySpec(gammas=(0.0,), lambdas=(0.0, 1.0)))
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "kind", "condition", "scale", "prefix", "gamma", "lambda",
            "max_abs_diff", "kl",
        ]
        assert len(rows) - 1 == len(report.rows)
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"cfg", "vpg", "composition"}

    def test_null_condition_marginals_consistent(self, small_tabular):
        # Marginalizing per condition then mixing equals the null-row chain.
        sites_null = prefix_marginal_sites(small_tabular, NULL_CONDITION, 2)
        assert sites_null.shape == (2, 2, 3)
        np.testing.assert_allclose(sites_null.sum(axis=-1), 1.0, atol=1e-9)


def reference_chain_law(step_law, num_scales):
    """``chain_law`` walked one prefix at a time, as one ``np.prod`` per map
    of each step: ``step_law(key)`` is the (S, V) law after one prefix."""
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


def stacked(step_law):
    """A per-prefix step law as the stacked ``step_laws`` of ``chain_law``,
    read at the keys of a tabular stack's signatures."""
    return lambda signed: np.stack([step_law(key) for key in signed.signature])


def site_rows(sites, vocab):
    """A tabular model with no rows whose scale k is one row of
    ``sites[k - 1]`` sites, in any order (a ``ScaleSchedule`` orders them),
    for walks whose step laws are given."""
    schedule = SimpleNamespace(grid=lambda k: (1, sites[k - 1]), sites=lambda k: sites[k - 1])
    return TabularModel(schedule, vocab, 1, {})


def keys_of(ids):
    """The prefix keys of a walk's rows, from each scale's (P, h, w) ids."""
    return [tuple(map(tuple, parts)) for parts in zip(*[a.reshape(len(a), -1).tolist()
                                                       for a in ids])]


def per_prefix_marginal_sites(step_law, shape, k):
    """Per-site p(r_k) as one ``total += p * law`` per prefix of scale k."""
    total = np.zeros(shape)
    for key, p in reference_chain_law(step_law, k - 1):
        total += p * step_law(key).reshape(shape)
    return total


class TestChainLawEngine:
    @given(
        st.integers(2, 3),
        st.lists(st.integers(1, 9), min_size=1, max_size=3),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_equals_the_per_map_product_bit_for_bit(self, vocab, sites, zeros):
        assume(vocab ** sum(sites) <= 3**9)

        def step_law(key):
            # Seeded by the prefix, so every prefix has its own law.
            rng = np.random.default_rng([len(key)] + [i for ids in key for i in ids])
            law = rng.dirichlet(np.ones(vocab), size=sites[len(key)])
            if zeros:
                law[0, -1] = 0.0
            return law

        model = site_rows(sites, vocab)
        signed, ids, probs = chain_law(model, stacked(step_law), len(sites))
        assert keys_of(ids) == signed.signature
        assert list(zip(signed.signature, probs.tolist())) == reference_chain_law(
            step_law, len(sites))

    @pytest.mark.parametrize("k", [2, 3])
    def test_tabular_marginal_sites_equal_the_per_prefix_sum_bit_for_bit(self, k):
        model = build_tabular(ScaleSchedule(((1, 1), (1, 2), (2, 2))), 3, 2, seed=4)
        for c in (0, 1, NULL_CONDITION):
            law = lambda key: model.row(c, len(key) + 1, key).reshape(-1, 3)  # noqa: E731
            expected = per_prefix_marginal_sites(law, model.schedule.grid(k) + (3,), k)
            got = prefix_marginal_sites(model, c, k)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_count_marginal_sites_equal_the_per_prefix_sum_bit_for_bit(
        self, multisite_count
    ):
        model = multisite_count
        for c in (0, NULL_CONDITION):
            for k in (2, 3):
                def law(key):
                    maps = prefix_maps(key, model.schedule)
                    logits = predict_logits(model, c, maps)
                    return np.exp(logits).reshape(-1, model.vocab)

                shape = model.schedule.grid(k) + (model.vocab,)
                expected = per_prefix_marginal_sites(law, shape, k)
                got = prefix_marginal_sites(model, c, k)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("outcome", [(0, 1, 2), (0, 1, 2, 0, 1), (0, 3, 1, 2), (-1, 0, 0, 0)])
    def test_posterior_rejects_an_outcome_that_is_no_map_of_the_scale(
        self, small_tabular, outcome
    ):
        # Scale 2 of ``small_tabular`` has 4 sites over V = 3.
        message = rf"outcome {re.escape(repr(outcome))} .* scale 2"
        with pytest.raises(InvalidInputError, match=message):
            prefix_posterior(small_tabular, 0, list(outcome), k=2)

    def test_marginal_is_kept_per_condition_and_scale(self, small_tabular, monkeypatch):
        first = prefix_marginal_sites(small_tabular, 1, 2)
        calls = []
        row = TabularModel.row
        monkeypatch.setattr(
            TabularModel, "row", lambda self, *args: calls.append(args) or row(self, *args)
        )
        again = prefix_marginal_sites(small_tabular, 1, 2)
        assert calls == []
        assert again is first and not again.flags.writeable
        # Another model with the same tables, or another key, is chained anew.
        np.testing.assert_array_equal(
            prefix_marginal_sites(build_tabular(small_tabular.schedule, 3, 2, seed=0), 1, 2),
            first,
        )
        assert calls != []
        # The first call at a scale kept every condition's and the null's.
        calls.clear()
        for c in (0, NULL_CONDITION):
            assert not prefix_marginal_sites(small_tabular, c, 2).flags.writeable
        assert calls == []
        prefix_marginal_sites(small_tabular, 0, 1)
        assert calls != []

    @given(
        st.sampled_from([((1, 1), (1, 2), (2, 2)), ((1, 2), (2, 1), (2, 2)), ((1, 1), (2, 2))]),
        st.integers(2, 3),
        st.integers(1, 3),
        st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_one_walk_per_scale_keeps_every_condition_bit_for_bit(
        self, dims, vocab, conditions, seed
    ):
        schedule = ScaleSchedule(dims)
        assume(vocab ** sum(h * w for h, w in dims[:-1]) <= 243)
        model = build_tabular(schedule, vocab, conditions, seed=seed)
        walks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("prefixlab.oracle.chain_law",
                       lambda *args: walks.append(args[2]) or chain_law(*args))
            for k in range(1, schedule.num_scales + 1):
                for c in [NULL_CONDITION, *range(conditions)]:
                    law = lambda key: model.row(c, len(key) + 1, key).reshape(-1, vocab)  # noqa: E731
                    expected = per_prefix_marginal_sites(law, schedule.grid(k) + (vocab,), k)
                    got = prefix_marginal_sites(model, c, k)
                    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert walks == list(range(schedule.num_scales))

    @given(multisite_schedules(max_prefix_sites=5), st.integers(2, 3), st.data())
    @settings(max_examples=12, deadline=None)
    def test_each_level_is_the_stack_embed_gives_its_keys(self, schedule, vocab, data):
        # The walk extends the live rows of its stack as rollouts do; each
        # level equals the model's ``embed`` of the level's keys: the same
        # signatures and, for a count stack, the same embedding bits.
        book = Codebook.seeded(schedule.num_scales, vocab, 2, seed=7)
        kind = data.draw(st.sampled_from(["tabular", "count"]))
        model = build_tabular(schedule, vocab, 2, seed=1) if kind == "tabular" else fit_count_model(
            make_corpus(schedule, book, num_conditions=2, count=12, seed=5), schedule, book,
            vocab=vocab, num_conditions=2, alpha=1.0, spec=SignatureSpec(bins=3, seed=0),
            embed_seed=11, embed_dim=3, include_null=False)

        def laws(signed):
            logits = model.branch_logits(0, signed.step, signed.signature)
            return np.exp(logits).reshape(len(signed.signature), -1, vocab)

        for k in range(1, schedule.num_scales + 1):
            signed, ids, probs = chain_law(model, laws, k - 1)
            keys = keys_of(ids) or [()]
            assert keys == enumerate_prefix_keys(schedule, vocab, k)
            assert signed.step == k and probs.shape == (len(keys),)
            fresh = model.embed(keys)
            assert signed.signature == fresh.signature
            if kind == "tabular":
                assert signed.embedding is fresh.embedding is None
                continue
            for a, b in zip(signed.embedding.grids + signed.embedding.pooled,
                            fresh.embedding.grids + fresh.embedding.pooled):
                assert a.tobytes() == b.tobytes()

    def test_the_walk_checks_no_prefix_it_builds(self, small_count, monkeypatch):
        # The map rule checks each prefix a caller gives; a walk's only
        # check is of its empty root, whatever the number of live prefixes.
        import prefixlab.model

        seen = []
        problem = prefixlab.model.prefix_problem
        monkeypatch.setattr(prefixlab.model, "prefix_problem",
                            lambda prefix, *a: seen.append(prefix) or problem(prefix, *a))
        gconfig = GuidanceConfig(lam=1.0, reference="exact-marginal")
        law = rollout_distribution(small_count, 0, gconfig, SamplerConfig())
        prefix_marginal_sites(small_count, 1, 2)
        assert len(law.outcomes) == 3 ** 5
        assert seen and all(prefix == () for prefix in seen)
        # A prefix the caller gives is checked.
        maps = prefix_maps(law.outcomes[7][:1], small_count.schedule)
        seen.clear()
        predict_logits(small_count, 0, maps)
        assert len(seen) == 1 and seen[0] is maps


def brute_force_joint(model, condition):
    """p(r_1..r_K | c) of every full sequence as a product of stored rows."""
    sched = model.schedule
    maps_per_scale = [
        product(range(model.vocab), repeat=sched.sites(k))
        for k in range(1, sched.num_scales + 1)
    ]
    joint = {}
    for seq in product(*maps_per_scale):
        p = 1.0
        for k, ids in enumerate(seq, start=1):
            row = model.row(condition, k, seq[: k - 1]).reshape(-1, model.vocab)
            for site, v in enumerate(ids):
                p *= row[site, v]
        joint[seq] = p
    return joint


@st.composite
def small_models(draw):
    # Up to three scales; every coarser grid fits inside the final one.
    grids = [(1, 1), (1, 2), (2, 1), (2, 2)]
    fh, fw = draw(st.sampled_from(grids))
    coarse = draw(
        st.lists(st.sampled_from([(h, w) for h, w in grids if h <= fh and w <= fw]),
                 max_size=2)
    )
    schedule = ScaleSchedule(
        tuple(sorted(coarse, key=lambda d: d[0] * d[1])) + ((fh, fw),)
    )
    vocab = draw(st.integers(2, 3))
    total_sites = sum(h * w for h, w in schedule.dims)
    assume(vocab ** total_sites <= 512)
    conditions = draw(st.integers(1, 2))
    return build_tabular(schedule, vocab, conditions, seed=draw(st.integers(0, 2**16)))


class TestChainedLawsAgainstBruteForce:
    @given(small_models())
    @settings(max_examples=25, deadline=None)
    def test_every_exact_law_matches_the_full_product(self, model):
        sched = model.schedule
        vocab = model.vocab
        for c in list(range(model.num_conditions)) + [NULL_CONDITION]:
            joint = brute_force_joint(model, c)
            assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
            for k in range(1, sched.num_scales + 1):
                prefix_law: dict = {}
                sites = np.zeros(sched.grid(k) + (vocab,))
                for seq, p in joint.items():
                    prefix_law[seq[: k - 1]] = prefix_law.get(seq[: k - 1], 0.0) + p
                    flat = sites.reshape(-1, vocab)
                    for site, v in enumerate(seq[k - 1]):
                        flat[site, v] += p

                pairs = enumerate_prefixes(model, c, k)
                assert [key for key, _ in pairs] == list(prefix_law)
                np.testing.assert_allclose(
                    [p for _, p in pairs], list(prefix_law.values()),
                    rtol=0, atol=1e-12,
                )
                np.testing.assert_allclose(
                    prefix_marginal_sites(model, c, k), sites, rtol=0, atol=1e-12
                )

                marg = prefix_marginal(model, c, k)
                from_maps = np.zeros_like(sites)
                for outcome, p in zip(marg.outcomes, marg.probs):
                    flat = from_maps.reshape(-1, vocab)
                    for site, v in enumerate(outcome):
                        flat[site, v] += p
                np.testing.assert_allclose(
                    from_maps, prefix_marginal_sites(model, c, k),
                    rtol=0, atol=1e-12,
                )

            law = rollout_distribution(model, c, GuidanceConfig(), SamplerConfig())
            assert list(law.outcomes) == list(joint)
            np.testing.assert_allclose(
                law.probs, list(joint.values()), rtol=0, atol=1e-12
            )
