"""Corruption plans and their two deterministic readings: on prefix
embeddings and on prefix keys."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixlab.corruption import (
    CorruptionPlan,
    CorruptionVariant,
    apply_corruption,
    corrupt_key,
    corrupted_signatures,
    plan_corruption,
    selection_size,
)
from prefixlab.errors import InconsistentPlanError, InvalidFractionError
from prefixlab.model import (
    PrefixEmbedding,
    SignatureSpec,
    TabularModel,
    context_signature,
    embed_prefix,
    embedding_params,
    fit_count_model,
)
from prefixlab.tokenizer import Codebook, ScaleSchedule

from tests.conftest import make_corpus, stacked_ids, uniform_maps

SCHEDULE = ScaleSchedule(((1, 1), (2, 2), (4, 4), (4, 4)))
BOOK = Codebook.seeded(4, 3, 2, seed=7)
EMBED_SEED = 11
PARAMS = embedding_params(SCHEDULE, BOOK.latent_dim, 4, EMBED_SEED)
# A count model on SCHEDULE, and a tabular model that signs its prefixes
# (``embed`` reads no table row).
COUNT = fit_count_model(
    make_corpus(SCHEDULE, BOOK, num_conditions=2, count=8, seed=3), SCHEDULE, BOOK, vocab=3,
    num_conditions=2, alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=EMBED_SEED,
    embed_dim=4, include_null=True,
)
KEYED = TabularModel(SCHEDULE, BOOK.vocab, 1, {})


def embedded_prefix(k, seed=0):
    """A random prefix for the step at scale k and its stack of one row."""
    maps = uniform_maps(SCHEDULE, BOOK.vocab, seed)[: k - 1]
    return maps, embed_prefix(stacked_ids([maps]), BOOK, SCHEDULE, PARAMS)


class TestSelectionSize:
    def test_round_half_up_examples(self):
        # 21 prefix sites before scale 4: floor(0.1 * 21 + 0.5) = 2.
        assert SCHEDULE.prefix_sites(4) == 21
        assert selection_size(SCHEDULE, 4, 0.1) == 2
        # Exactly-half cases round up: floor(0.5 * 5 + 0.5) = 3.
        sched = ScaleSchedule(((1, 1), (2, 2), (2, 2)))
        assert sched.prefix_sites(3) == 5
        assert selection_size(sched, 3, 0.5) == 3
        assert selection_size(SCHEDULE, 2, 0.0) == 0
        assert selection_size(SCHEDULE, 4, 1.0) == 21
        # 0.7 * 5 = 3.5 must round up even though the float product is
        # 3.4999999999999996.
        assert selection_size(sched, 3, 0.7) == 4

    def test_scale_one_has_no_prefix(self):
        assert selection_size(SCHEDULE, 1, 1.0) == 0

    @given(st.floats(0.0, 1.0), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_repeated_calls_match_exact_rounding(self, fraction, k):
        # The rounding is cached per (prefix sites, fraction); a repeat call
        # must give the value computed from scratch.
        exact = Fraction(fraction).limit_denominator(10**6) * SCHEDULE.prefix_sites(k)
        expected = math.floor(exact + Fraction(1, 2))
        assert selection_size(SCHEDULE, k, fraction) == expected
        assert selection_size(SCHEDULE, k, fraction) == expected


    @given(st.integers(1, 3 * 10**6), st.data(), st.sampled_from([-1, 0, 1]),
           st.integers(1, 10**5))
    @settings(max_examples=300, deadline=None)
    def test_integer_rounding_equals_limit_denominator(self, q, data, step, sites):
        # Floats p/q with denominators about the 10**6 limit, and their
        # neighbours, snap and round as Fraction.limit_denominator does.
        fraction = data.draw(st.integers(0, q)) / q
        fraction = min(max(float(np.nextafter(fraction, fraction + step)), 0.0), 1.0)
        exact = Fraction(fraction).limit_denominator(10**6) * sites
        schedule = ScaleSchedule(((1, sites), (1, sites)))
        assert selection_size(schedule, 2, fraction) == math.floor(exact + Fraction(1, 2))


class TestPlanning:
    def test_fraction_outside_unit_interval_raises(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(InvalidFractionError):
                plan_corruption(SCHEDULE, 3, bad, CorruptionVariant.SAME_SCALE_TOKEN, 0)
            with pytest.raises(InvalidFractionError):
                selection_size(SCHEDULE, 2, bad)

    def test_selection_without_replacement_donors_same_scale(self):
        plan = plan_corruption(
            SCHEDULE, 4, 0.5, CorruptionVariant.SAME_SCALE_TOKEN, seed=1
        )
        assert len(plan.selected) == selection_size(SCHEDULE, 4, 0.5)
        assert len(set(plan.selected)) == len(plan.selected)
        for (j, u), (dj, du) in zip(plan.selected, plan.donors):
            assert dj == j
            assert 0 <= u < SCHEDULE.sites(j)
            assert 0 <= du < SCHEDULE.sites(j)

    def test_seed_determinism(self):
        a = plan_corruption(SCHEDULE, 4, 0.3, CorruptionVariant.SAME_SCALE_POSITION, 5)
        b = plan_corruption(SCHEDULE, 4, 0.3, CorruptionVariant.SAME_SCALE_POSITION, 5)
        assert a == b

    def test_random_codebook_needs_book(self):
        with pytest.raises(InconsistentPlanError):
            plan_corruption(SCHEDULE, 3, 0.5, CorruptionVariant.RANDOM_CODEBOOK, 0)
        plan = plan_corruption(
            SCHEDULE, 3, 0.5, CorruptionVariant.RANDOM_CODEBOOK, 0, book=BOOK
        )
        assert len(plan.code_draws) == len(plan.selected)
        for scale, code in plan.code_draws:
            assert 1 <= scale <= BOOK.num_scales
            assert 0 <= code < BOOK.vocab

    def test_uniform_prefix_draws_whole_grids(self):
        with pytest.raises(InconsistentPlanError):
            plan_corruption(SCHEDULE, 3, 0.5, CorruptionVariant.UNIFORM_PREFIX, 0)
        plan = plan_corruption(
            SCHEDULE, 3, 0.5, CorruptionVariant.UNIFORM_PREFIX, 0, book=BOOK
        )
        assert [len(ids) for ids in plan.uniform_tokens] == [1, 4]
        assert all(0 <= x < BOOK.vocab for ids in plan.uniform_tokens for x in ids)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_selected_sites_always_in_prefix(self, seed):
        plan = plan_corruption(
            SCHEDULE, 4, 0.4, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, seed
        )
        for j, u in plan.selected:
            assert 1 <= j < 4
            assert 0 <= u < SCHEDULE.sites(j)


class TestApplication:
    def test_zero_fraction_is_identity(self):
        _, emb = embedded_prefix(4)
        plan = plan_corruption(
            SCHEDULE, 4, 0.0, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, 0
        )
        out = apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)
        for a, b in zip(out.grids, emb.grids):
            assert np.array_equal(a, b)

    def test_input_embedding_untouched(self):
        _, emb = embedded_prefix(4)
        before = [g.copy() for g in emb.grids]
        plan = plan_corruption(
            SCHEDULE, 4, 1.0, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, 3
        )
        apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)
        for a, b in zip(emb.grids, before):
            assert np.array_equal(a, b)

    def test_full_embedding_outputs_stay_in_scale_set(self):
        _, emb = embedded_prefix(4)
        plan = plan_corruption(
            SCHEDULE, 4, 1.0, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, 2
        )
        out = apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)
        for j, grid in enumerate(out.grids):
            originals = emb.grids[j].reshape(-1, grid.shape[-1])
            for vec in grid.reshape(-1, grid.shape[-1]):
                assert any(np.array_equal(vec, o) for o in originals)

    def test_full_embedding_variant_copies_each_donor(self):
        _, emb = embedded_prefix(4)
        plan = plan_corruption(
            SCHEDULE, 4, 1.0, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, 2
        )
        out = apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)
        moved = 0
        for (j, u), (_, du) in zip(plan.selected, plan.donors):
            h, w = SCHEDULE.grid(j)
            tgt, don = (u // w, u % w), (du // w, du % w)
            assert np.array_equal(out.grids[j - 1][0][tgt], emb.grids[j - 1][0][don])
            moved += not np.array_equal(emb.grids[j - 1][0][tgt], emb.grids[j - 1][0][don])
        assert moved > 0

    def test_single_site_scales_are_noops_for_same_scale_variants(self):
        # On a 1x1 scale the only possible donor is the site itself.
        sched = ScaleSchedule(((1, 1), (1, 1)))
        book = Codebook.seeded(2, 3, 2, seed=7)
        maps = uniform_maps(sched, 3, seed=0)[:1]
        params = embedding_params(sched, book.latent_dim, 4, EMBED_SEED)
        emb = embed_prefix(stacked_ids([maps]), book, sched, params)
        for variant in (
            CorruptionVariant.SAME_SCALE_TOKEN,
            CorruptionVariant.SAME_SCALE_POSITION,
            CorruptionVariant.SAME_SCALE_FULL_EMBEDDING,
        ):
            plan = plan_corruption(sched, 2, 1.0, variant, seed=4)
            out = apply_corruption(emb, [plan], book, sched, params)
            np.testing.assert_allclose(out.grids[0], emb.grids[0], atol=1e-12)

    def test_token_and_position_variants_match_hand_formula(self):
        _, emb = embedded_prefix(3)
        proj, pos = embedding_params(SCHEDULE, BOOK.latent_dim, 4, EMBED_SEED)
        plan = plan_corruption(SCHEDULE, 3, 1.0, CorruptionVariant.SAME_SCALE_TOKEN, 9)
        out = apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)
        for (j, u), (_, du) in zip(plan.selected, plan.donors):
            h, w = SCHEDULE.grid(j)
            tgt, don = (u // w, u % w), (du // w, du % w)
            expected = emb.pooled[j - 1][0][don] @ proj.T + pos[j - 1][tgt]
            np.testing.assert_allclose(out.grids[j - 1][0][tgt], expected)
        plan = plan_corruption(
            SCHEDULE, 3, 1.0, CorruptionVariant.SAME_SCALE_POSITION, 9
        )
        out = apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)
        for (j, u), (_, du) in zip(plan.selected, plan.donors):
            h, w = SCHEDULE.grid(j)
            tgt, don = (u // w, u % w), (du // w, du % w)
            expected = emb.pooled[j - 1][0][tgt] @ proj.T + pos[j - 1][don]
            np.testing.assert_allclose(out.grids[j - 1][0][tgt], expected)

    def test_random_codebook_uses_drawn_vectors(self):
        _, emb = embedded_prefix(3)
        proj, pos = embedding_params(SCHEDULE, BOOK.latent_dim, 4, EMBED_SEED)
        plan = plan_corruption(
            SCHEDULE, 3, 1.0, CorruptionVariant.RANDOM_CODEBOOK, 6, book=BOOK
        )
        out = apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)
        for idx, (j, u) in enumerate(plan.selected):
            h, w = SCHEDULE.grid(j)
            tgt = (u // w, u % w)
            scale, code = plan.code_draws[idx]
            expected = BOOK.table(scale)[code] @ proj.T + pos[j - 1][tgt]
            np.testing.assert_allclose(out.grids[j - 1][0][tgt], expected)

    def test_uniform_prefix_is_read_on_keys_only(self):
        # A uniform-prefix plan replaces the prefix's tokens: its reading is
        # the plan's token grids as the key, and the embedding reading
        # rejects it by name.
        maps, emb = embedded_prefix(3)
        plan = plan_corruption(
            SCHEDULE, 3, 0.0, CorruptionVariant.UNIFORM_PREFIX, 8, book=BOOK
        )
        assert corrupt_key(tuple(m.key() for m in maps), plan) == plan.uniform_tokens
        with pytest.raises(InconsistentPlanError, match="uniform_prefix"):
            apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)

    def test_step_mismatch_raises(self):
        _, emb = embedded_prefix(3)
        plan = plan_corruption(
            SCHEDULE, 4, 0.5, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, 0
        )
        with pytest.raises(InconsistentPlanError):
            apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)

    def test_site_of_its_own_step_raises(self):
        # plan_corruption draws only prefix sites; a hand-built plan can name
        # a site of scale 3 for the step at scale 3.
        _, emb = embedded_prefix(3)
        plan = CorruptionPlan(3, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, 1.0,
                              selected=((3, 0),), donors=((3, 1),), seed=0)
        with pytest.raises(InconsistentPlanError, match="beyond the prefix"):
            apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)



# The variants with an embedding reading, and those with a token reading.
EMBEDDING_READ = [v for v in CorruptionVariant if v is not CorruptionVariant.UNIFORM_PREFIX]
TOKEN_READ = [CorruptionVariant.SAME_SCALE_TOKEN, CorruptionVariant.RANDOM_CODEBOOK,
              CorruptionVariant.UNIFORM_PREFIX]


def corrupted_site_by_site(embedding, plan, book, schedule, params):
    """The corruption of a stack of one row, one selected site at a time,
    each content vector projected alone: the reference a stack must equal."""
    grids = [g.copy() for g in embedding.grids]
    proj, pos = params
    for idx, ((j, u), (_, du)) in enumerate(zip(plan.selected, plan.donors)):
        w = schedule.grid(j)[1]
        tgt, don = (u // w, u % w), (du // w, du % w)
        if plan.variant is CorruptionVariant.SAME_SCALE_FULL_EMBEDDING:
            grids[j - 1][0][tgt] = embedding.grids[j - 1][0][don]
        elif plan.variant is CorruptionVariant.SAME_SCALE_TOKEN:
            grids[j - 1][0][tgt] = embedding.pooled[j - 1][0][don] @ proj.T + pos[j - 1][tgt]
        elif plan.variant is CorruptionVariant.SAME_SCALE_POSITION:
            grids[j - 1][0][tgt] = embedding.pooled[j - 1][0][tgt] @ proj.T + pos[j - 1][don]
        else:
            scale, code = plan.code_draws[idx]
            grids[j - 1][0][tgt] = book.table(scale)[code] @ proj.T + pos[j - 1][tgt]
    return PrefixEmbedding(tuple(grids), embedding.pooled)


def assert_same_row(got, i, want):
    """Row i of the stack ``got`` is the stack of one row ``want``, bit for bit."""
    assert len(got.grids) == len(want.grids) and len(got.pooled) == len(want.pooled)
    for a, b in zip(got.grids + got.pooled, want.grids + want.pooled):
        assert a[i:i + 1].shape == b.shape and a[i:i + 1].tobytes() == b.tobytes()


class TestStackedApplication:
    @given(
        st.sampled_from(EMBEDDING_READ),
        st.sampled_from([0.1, 0.5, 1.0]),
        st.integers(2, 4),
        st.integers(1, 6),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_each_plan_applied_alone(self, variant, fraction, k, rows, seed):
        # Bit for bit: the stack projects each content vector as a one-row
        # matrix, which is what one vector's ``x @ proj.T`` computes.
        prefixes, embeddings = zip(*(embedded_prefix(k, seed + i) for i in range(rows)))
        plans = [plan_corruption(SCHEDULE, k, fraction, variant, seed + i, book=BOOK)
                 for i in range(rows)]
        stack = embed_prefix(stacked_ids(prefixes), BOOK, SCHEDULE, PARAMS)
        stacked = apply_corruption(stack, plans, BOOK, SCHEDULE, PARAMS)
        assert len(stacked.grids[0]) == rows
        for i, (embedding, plan) in enumerate(zip(embeddings, plans)):
            want = corrupted_site_by_site(embedding, plan, BOOK, SCHEDULE, PARAMS)
            assert_same_row(stacked, i, want)
            assert_same_row(apply_corruption(embedding, [plan], BOOK, SCHEDULE, PARAMS), 0, want)

    def test_stack_takes_one_plan_per_row_of_one_variant(self):
        prefixes = [embedded_prefix(3, seed)[0] for seed in range(2)]
        stack = embed_prefix(stacked_ids(prefixes), BOOK, SCHEDULE, PARAMS)
        full, token = (plan_corruption(SCHEDULE, 3, 0.5, variant, 0)
                       for variant in (CorruptionVariant.SAME_SCALE_FULL_EMBEDDING,
                                       CorruptionVariant.SAME_SCALE_TOKEN))
        with pytest.raises(InconsistentPlanError, match="1 plans for a stack of 2"):
            apply_corruption(stack, [full], BOOK, SCHEDULE, PARAMS)
        with pytest.raises(InconsistentPlanError, match="one variant"):
            apply_corruption(stack, [full, token], BOOK, SCHEDULE, PARAMS)


class TestTokenReading:
    """``corrupt_key`` reads a plan on a prefix key, and
    ``corrupted_signatures`` signs a model's stack corrupted under either
    reading."""

    @given(st.sampled_from(TOKEN_READ[:2]), st.sampled_from([0.1, 0.5, 1.0]),
           st.integers(2, 4), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_target_takes_its_donors_id_or_its_drawn_code(self, variant, fraction, k, seed):
        maps, _ = embedded_prefix(k, seed)
        key = tuple(m.key() for m in maps)
        plan = plan_corruption(SCHEDULE, k, fraction, variant, seed, book=BOOK)
        got = corrupt_key(key, plan)
        assert [len(part) for part in got] == [len(part) for part in key]
        targets = {}
        for n, ((j, u), (_, du)) in enumerate(zip(plan.selected, plan.donors)):
            token = variant is CorruptionVariant.SAME_SCALE_TOKEN
            targets[(j, u)] = key[j - 1][du] if token else plan.code_draws[n][1]
        for j, part in enumerate(got, start=1):
            for u, v in enumerate(part):
                assert type(v) is int and v == targets.get((j, u), key[j - 1][u])

    @pytest.mark.parametrize("variant", [CorruptionVariant.SAME_SCALE_POSITION,
                                         CorruptionVariant.SAME_SCALE_FULL_EMBEDDING])
    def test_embedding_only_plan_has_no_token_reading(self, variant):
        maps, _ = embedded_prefix(3)
        plan = plan_corruption(SCHEDULE, 3, 0.5, variant, 0)
        with pytest.raises(InconsistentPlanError, match=variant.value):
            corrupt_key(tuple(m.key() for m in maps), plan)

    def test_key_reading_checks_the_plans_step(self):
        maps, _ = embedded_prefix(3)
        plan = plan_corruption(SCHEDULE, 4, 0.5, CorruptionVariant.SAME_SCALE_TOKEN, 0)
        with pytest.raises(InconsistentPlanError, match="step 4"):
            corrupt_key(tuple(m.key() for m in maps), plan)

    @given(st.lists(st.sampled_from([None] + list(CorruptionVariant)), min_size=1, max_size=6),
           st.integers(2, 4), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_signed_stack_equals_each_row_read_alone(self, variants, k, seed):
        # Rows of several variants, and rows kept clean, in one call: a
        # count row under uniform_prefix is its plan's grids embedded and
        # signed, any other its embedding corrupted and binned; a tabular
        # row is its corrupted key. The embedding-only variants have no
        # tabular reading.
        prefixes = [embedded_prefix(k, seed + i)[0] for i in range(len(variants))]
        plans = [None if v is None else plan_corruption(SCHEDULE, k, 0.5, v, seed + i, book=BOOK)
                 for i, v in enumerate(variants)]
        count = COUNT.embed(prefixes, BOOK)
        got = corrupted_signatures(COUNT, count, plans, BOOK)
        for i, (prefix, plan) in enumerate(zip(prefixes, plans)):
            alone = COUNT.embed([prefix], BOOK)
            if plan is None:
                want = alone.signature[0]
            elif plan.variant is CorruptionVariant.UNIFORM_PREFIX:
                want = COUNT.embed([plan.uniform_tokens], BOOK).signature[0]
            else:
                want = context_signature(apply_corruption(
                    alone.embedding, [plan], BOOK, SCHEDULE, COUNT.params), COUNT.thresholds)[0]
            assert got[i] == want
        token = [p if p is None or p.variant in TOKEN_READ else None for p in plans]
        keys = [tuple(m.key() for m in prefix) for prefix in prefixes]
        got = corrupted_signatures(KEYED, KEYED.embed(prefixes), token, BOOK)
        assert got == [key if p is None else corrupt_key(key, p) for key, p in zip(keys, token)]

