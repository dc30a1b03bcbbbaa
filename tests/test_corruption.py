"""Corruption plans and their deterministic application to prefix embeddings."""

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
    plan_corruption,
    selection_size,
)
from prefixlab.errors import InconsistentPlanError, InvalidFractionError
from prefixlab.model import PrefixEmbedding, embed_prefix, embedding_params, prefix_maps
from prefixlab.tokenizer import Codebook, ScaleSchedule, TokenMap

from tests.conftest import stacked_ids, uniform_maps

SCHEDULE = ScaleSchedule(((1, 1), (2, 2), (4, 4), (4, 4)))
BOOK = Codebook.seeded(4, 3, 2, seed=7)
EMBED_SEED = 11
PARAMS = embedding_params(SCHEDULE, BOOK.latent_dim, 4, EMBED_SEED)


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

    def test_uniform_prefix_rebuilds_whole_embedding(self):
        _, emb = embedded_prefix(3)
        plan = plan_corruption(
            SCHEDULE, 3, 0.0, CorruptionVariant.UNIFORM_PREFIX, 8, book=BOOK
        )
        out = apply_corruption(emb, [plan], BOOK, SCHEDULE, PARAMS)
        maps = [
            TokenMap(j, np.asarray(ids).reshape(SCHEDULE.grid(j)))
            for j, ids in enumerate(plan.uniform_tokens, start=1)
        ]
        expected = embed_prefix(stacked_ids([maps]), BOOK, SCHEDULE, PARAMS)
        for a, b in zip(out.grids, expected.grids):
            assert np.array_equal(a, b)

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



def corrupted_site_by_site(embedding, plan, book, schedule, params):
    """The corruption of a stack of one row, one selected site at a time,
    each content vector projected alone: the reference a stack must equal."""
    if plan.variant is CorruptionVariant.UNIFORM_PREFIX:
        maps = prefix_maps(plan.uniform_tokens, schedule)
        return embed_prefix(stacked_ids([maps]), book, schedule, params)
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
        st.sampled_from(list(CorruptionVariant)),
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
